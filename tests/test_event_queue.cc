/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace flashsim
{
namespace
{

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<Tick> at;
    eq.schedule(10, [&] {
        at.push_back(eq.now());
        eq.schedule(5, [&] { at.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(at, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, ZeroDelayRunsAtSameTick)
{
    EventQueue eq;
    Tick seen = 999;
    eq.schedule(7, [&] { eq.schedule(0, [&] { seen = eq.now(); }); });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesClock)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.schedule(100, [&] { ++ran; });
    std::uint64_t n = eq.run(50);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(ran, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(1, [&] { ++ran; });
    eq.schedule(2, [&] { ++ran; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(ran, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.scheduleAt(5, [] {}), "past");
    });
    eq.run();
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(10, [&] { ++ran; });
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    eq.run();
    EXPECT_EQ(ran, 0);
}

TEST(EventQueue, FifoPreservedAcrossHeapReordering)
{
    // Scrambled submission times with several same-tick groups: the
    // heap must still run ticks in order and same-tick events FIFO
    // (this pins the std::pop_heap-based pop, which replaced the
    // const_cast move out of priority_queue::top()).
    EventQueue eq;
    std::vector<int> order;
    const Cycles ticks[] = {5, 1, 5, 3, 1, 5, 3, 1};
    for (int i = 0; i < 8; ++i)
        eq.schedule(ticks[i], [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 4, 7, 3, 6, 0, 2, 5}));
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i)
        eq.schedule(static_cast<Cycles>((i * 7919) % 1000), [&] {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
        });
    eq.run();
    EXPECT_TRUE(monotonic);
}

TEST(EventQueue, BucketRingWraparound)
{
    // A self-rescheduling chain whose in-window stride does not divide
    // kRingSize walks the ring slots through many wraps without ever
    // touching the overflow heap; each hop must land exactly where
    // scheduled.
    EventQueue eq;
    constexpr Cycles kStride = 700; // < kRingSize, does not divide it
    constexpr int kHops = 40;       // covers > 27 * kRingSize ticks
    std::vector<Tick> at;
    struct Hopper
    {
        EventQueue &eq;
        std::vector<Tick> &at;
        int hopsLeft;
        void
        operator()()
        {
            at.push_back(eq.now());
            if (hopsLeft > 1)
                eq.schedule(kStride, Hopper{eq, at, hopsLeft - 1});
        }
    };
    eq.schedule(kStride, Hopper{eq, at, kHops});
    eq.run();
    ASSERT_EQ(at.size(), static_cast<std::size_t>(kHops));
    for (int i = 0; i < kHops; ++i)
        EXPECT_EQ(at[static_cast<std::size_t>(i)],
                  static_cast<Tick>(kStride) *
                      static_cast<Tick>(i + 1));
    EXPECT_GT(eq.now(), EventQueue::kRingSize * 27);
}

TEST(EventQueue, FarFutureOverflowPromotion)
{
    // An event beyond the ring window parks in the overflow heap and is
    // promoted into its bucket when the clock approaches; it must still
    // run at its exact tick, before any same-tick event scheduled later.
    EventQueue eq;
    std::vector<int> order;
    const Tick far = EventQueue::kRingSize * 3 + 17;
    eq.scheduleAt(far, [&] { order.push_back(0); }); // overflow
    eq.scheduleAt(far - 100, [&] {
        // far is now inside the window; this lands in the bucket.
        eq.scheduleAt(far, [&] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), far);
}

TEST(EventQueue, FifoWithinTickAcrossBucketHeapBoundary)
{
    // Several events land on one tick via both levels: three scheduled
    // while the tick was outside the window (heap), two more scheduled
    // after it entered the window (bucket). Global FIFO is by schedule
    // time, so the heap-promoted three run first, in order.
    EventQueue eq;
    std::vector<int> order;
    const Tick t = EventQueue::kRingSize * 2 + 5;
    for (int i = 0; i < 3; ++i)
        eq.scheduleAt(t, [&order, i] { order.push_back(i); });
    eq.scheduleAt(t - 50, [&] {
        for (int i = 3; i < 5; ++i)
            eq.scheduleAt(t, [&order, i] { order.push_back(i); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, MixedNearFarStressOrdering)
{
    // Random mix straddling the ring/overflow boundary, including
    // events that reschedule across it; (tick, seq) order must hold.
    EventQueue eq;
    std::uint32_t lcg = 42;
    auto rnd = [&] {
        lcg = lcg * 1664525u + 1013904223u;
        return lcg >> 16;
    };
    Tick last = 0;
    std::uint64_t executed = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        Cycles d = rnd() % (3 * EventQueue::kRingSize);
        eq.schedule(d, [&] {
            if (eq.now() < last)
                monotonic = false;
            last = eq.now();
            ++executed;
        });
    }
    EXPECT_EQ(eq.run(), 5000u);
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(executed, 5000u);
}

TEST(EventQueue, ResetClearsBothLevels)
{
    EventQueue eq;
    int ran = 0;
    eq.schedule(3, [&] { ++ran; });                          // ring
    eq.schedule(EventQueue::kRingSize * 5, [&] { ++ran; }); // overflow
    EXPECT_EQ(eq.pending(), 2u);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(ran, 0);
    // The queue must be fully reusable after reset.
    eq.schedule(1, [&] { ++ran; });
    eq.run();
    EXPECT_EQ(ran, 1);
}

// ---------------------------------------------------------------------------
// In-place construction and execution.

TEST(EventQueue, SameTickGrowthNeverMovesTheRunningEvent)
{
    // The running event schedules far more same-tick events than the
    // bucket has room for, forcing its vector to reallocate, and then
    // reads its own captures. Events run where they were built, so
    // this is a use-after-free (caught under ASan) unless the running
    // event's storage is out of the growing bucket's reach.
    EventQueue eq;
    std::vector<int> order;
    std::uint64_t seen = 0;
    const std::uint64_t a = 0x1111, b = 0x2222, c = 0x3333, d = 0x4444;
    eq.schedule(3, [&eq, &order, &seen, a, b, c, d] {
        for (int i = 0; i < 5000; ++i)
            eq.schedule(0, [&order, i] { order.push_back(i); });
        seen = a + b + c + d;
    });
    // A second pre-existing event in the same tick also runs after the
    // growth, from the original storage.
    eq.schedule(3, [&order] { order.push_back(-1); });
    EXPECT_EQ(eq.run(), 5002u);
    EXPECT_EQ(seen, 0xaaaau);
    ASSERT_EQ(order.size(), 5001u);
    EXPECT_EQ(order[0], -1);
    for (int i = 0; i < 5000; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i) + 1], i);
    EXPECT_EQ(eq.now(), 3u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickCascadesStayFifoOverManyRounds)
{
    // Each same-tick event schedules the next generation at the same
    // tick: every generation is its own drain round (and swap of the
    // side vector), and order stays global FIFO across rounds.
    EventQueue eq;
    std::vector<int> order;
    std::function<void(int)> spawn = [&](int id) {
        order.push_back(id);
        if (id < 64)
            eq.schedule(0, [&spawn, id] { spawn(2 * id); });
        if (id < 64)
            eq.schedule(0, [&spawn, id] { spawn(2 * id + 1); });
    };
    eq.schedule(9, [&spawn] { spawn(1); });
    eq.run();
    std::vector<int> want;
    for (int i = 1; i < 128; ++i)
        want.push_back(i);
    EXPECT_EQ(order, want);
    // A later tick reuses the same ring slot and side vector cleanly.
    eq.schedule(EventQueue::kRingSize, [&order] { order.push_back(0); });
    eq.run();
    EXPECT_EQ(order.back(), 0);
}

TEST(EventQueue, NetLaneRunsFirstInSrcSeqOrderThenFifo)
{
    EventQueue eq;
    std::vector<std::pair<int, int>> order; // (lane, id)
    const Tick t = 20;
    // Normal events scheduled before, between and after the network
    // sends: all run after the whole network lane, in FIFO order.
    eq.scheduleAt(t, [&order] { order.push_back({1, 0}); });
    const std::pair<NodeId, std::uint64_t> keys[] = {
        {3, 7}, {1, 9}, {3, 2}, {0, 5}, {1, 1}, {2, 4}};
    for (const auto &[src, seq] : keys) {
        eq.scheduleNet(t, src, seq, [&order, src = src, seq = seq] {
            order.push_back({0, static_cast<int>(src * 100 + seq)});
        });
        eq.scheduleAt(t, [&order, src = src] {
            order.push_back({1, static_cast<int>(src) + 1});
        });
    }
    // Far-future net events promote from overflow into the same order.
    const Tick far = t + 3 * EventQueue::kRingSize;
    eq.scheduleNet(far, 2, 1, [&order] { order.push_back({2, 201}); });
    eq.scheduleNet(far, 1, 3, [&order] { order.push_back({2, 103}); });
    eq.run();
    const std::vector<std::pair<int, int>> want = {
        {0, 5},   {0, 101}, {0, 109}, {0, 204}, {0, 302}, {0, 307},
        {1, 0},   {1, 4},   {1, 2},   {1, 4},   {1, 1},   {1, 2},
        {1, 3},   {2, 103}, {2, 201}};
    EXPECT_EQ(order, want);
}

TEST(EventQueue, InPlaceAndCallbackOverloadsInterleaveInSeqOrder)
{
    // Alternate the in-place overloads with prebuilt Callbacks, near
    // and far (overflow), at the same ticks: one (tick, seq) order.
    EventQueue eq;
    std::vector<int> order;
    for (Tick when : {Tick{5}, Tick{5 + 2 * EventQueue::kRingSize}}) {
        for (int i = 0; i < 8; ++i) {
            const int id = static_cast<int>(when) * 100 + i;
            if (i % 2 == 0) {
                eq.scheduleAt(when, [&order, id] { order.push_back(id); });
            } else {
                EventQueue::Callback cb = [&order, id] {
                    order.push_back(id);
                };
                eq.scheduleAt(when, std::move(cb));
            }
        }
    }
    // schedule() with a delay, both overloads, mid-run.
    eq.scheduleAt(6, [&] {
        eq.schedule(1, [&order] { order.push_back(-2); });
        EventQueue::Callback cb = [&order] { order.push_back(-3); };
        eq.schedule(1, std::move(cb));
        eq.schedule(1, [&order] { order.push_back(-4); });
    });
    eq.run();
    std::vector<int> want;
    for (int i = 0; i < 8; ++i)
        want.push_back(500 + i);
    want.insert(want.end(), {-2, -3, -4});
    for (int i = 0; i < 8; ++i)
        want.push_back(
            static_cast<int>(5 + 2 * EventQueue::kRingSize) * 100 + i);
    EXPECT_EQ(order, want);
}

TEST(InlineCallback, TriviallyCopyableCallableSurvivesRelocation)
{
    // Every in-tree event lambda is trivially copyable and relocates by
    // memcpy; its captures must come through moves intact.
    struct Payload
    {
        std::uint64_t w[6];
    };
    Payload p{{1, 2, 3, 4, 5, 6}};
    std::uint64_t sum = 0;
    auto fn = [&sum, p] {
        for (std::uint64_t v : p.w)
            sum += v;
    };
    static_assert(std::is_trivially_copyable_v<decltype(fn)>);
    InlineCallback a = fn;
    InlineCallback b = std::move(a);
    InlineCallback c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(sum, 21u);
    // And through a queue whose bucket reallocates around it.
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(1, fn);
    eq.run();
    EXPECT_EQ(sum, 21u * 101);
}

/** Instrumented callable for InlineCallback lifetime checks. */
struct LifeProbe
{
    static int live;
    static int invoked;
    int *sink;

    explicit LifeProbe(int *s) : sink(s) { ++live; }
    LifeProbe(const LifeProbe &o) : sink(o.sink) { ++live; }
    LifeProbe(LifeProbe &&o) noexcept : sink(o.sink) { ++live; }
    ~LifeProbe() { --live; }
    void
    operator()()
    {
        ++invoked;
        ++*sink;
    }
};

int LifeProbe::live = 0;
int LifeProbe::invoked = 0;

// ---------------------------------------------------------------------------
// Cancellable / re-armable timers (the transport's RTO machinery).

TEST(EventQueueTimer, FiresAtAbsoluteTick)
{
    EventQueue eq;
    Tick fired = 0;
    EventQueue::TimerId id =
        eq.armTimer(40, [&] { fired = eq.now(); });
    EXPECT_TRUE(id.valid());
    EXPECT_TRUE(eq.timerArmed(id));
    eq.run();
    EXPECT_EQ(fired, 40u);
    EXPECT_FALSE(eq.timerArmed(id));
}

TEST(EventQueueTimer, CancelBeforeFireSuppressesCallback)
{
    EventQueue eq;
    int fired = 0;
    EventQueue::TimerId id = eq.armTimer(40, [&] { ++fired; });
    EXPECT_TRUE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.timerArmed(id));
    eq.run();
    EXPECT_EQ(fired, 0);
    // Stale handle: every operation is a safe no-op.
    EXPECT_FALSE(eq.cancelTimer(id));
    EXPECT_FALSE(eq.rearmTimer(id, 100));
}

TEST(EventQueueTimer, CancelAfterOverflowPromotion)
{
    // Arm far enough out that the fire event lands in the overflow
    // heap (the bucket ring covers kRingSize=1024 ticks), then cancel
    // *after* the event has been promoted into the ring: a canceller
    // scheduled at the same far-future tick, earlier in FIFO order,
    // runs at that tick before the promoted fire would.
    EventQueue eq;
    int fired = 0;
    EventQueue::TimerId id;
    eq.scheduleAt(5000, [&] { EXPECT_TRUE(eq.cancelTimer(id)); });
    id = eq.armTimer(5000, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(eq.now(), 5000u);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueTimer, RearmMovesPendingFire)
{
    EventQueue eq;
    std::vector<Tick> fires;
    EventQueue::TimerId id =
        eq.armTimer(10, [&] { fires.push_back(eq.now()); });
    EXPECT_TRUE(eq.rearmTimer(id, 50)); // supersedes the tick-10 fire
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{50}));
}

TEST(EventQueueTimer, RearmFromWithinCallbackSameTickAndLater)
{
    // The RTO pattern: the fire handler re-arms its own timer. Also
    // covers re-arming at the current tick (fires again same tick).
    EventQueue eq;
    std::vector<Tick> fires;
    EventQueue::TimerId id;
    id = eq.armTimer(10, [&] {
        fires.push_back(eq.now());
        if (fires.size() == 1) {
            EXPECT_TRUE(eq.rearmTimer(id, eq.now())); // same tick
        } else if (fires.size() == 2) {
            EXPECT_TRUE(eq.rearmTimer(id, 30));
        }
    });
    eq.run();
    EXPECT_EQ(fires, (std::vector<Tick>{10, 10, 30}));
}

TEST(EventQueueTimer, RearmAfterFireReusesStoredCallback)
{
    EventQueue eq;
    int fired = 0;
    EventQueue::TimerId id = eq.armTimer(10, [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    // The slot keeps its callback after firing: re-arm without
    // re-supplying it.
    EXPECT_TRUE(eq.rearmTimer(id, 25));
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTimer, CancelRecyclesSlotWithoutCrossTalk)
{
    EventQueue eq;
    int a = 0, b = 0;
    EventQueue::TimerId first = eq.armTimer(10, [&] { ++a; });
    eq.cancelTimer(first);
    // The recycled slot must answer only to the new handle.
    EventQueue::TimerId second = eq.armTimer(20, [&] { ++b; });
    EXPECT_EQ(first.slot, second.slot);
    EXPECT_FALSE(eq.timerArmed(first));
    EXPECT_TRUE(eq.timerArmed(second));
    EXPECT_FALSE(eq.rearmTimer(first, 30));
    eq.run();
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
}

TEST(EventQueueTimer, ResetClearsTimers)
{
    EventQueue eq;
    int fired = 0;
    EventQueue::TimerId id = eq.armTimer(10, [&] { ++fired; });
    eq.reset();
    EXPECT_FALSE(eq.timerArmed(id));
    eq.run();
    EXPECT_EQ(fired, 0);
}

// ---------------------------------------------------------------------------
// The O(1) horizon query behind the machine's run loop (nextTick()
// runs once per simulated tick).

TEST(EventQueueHorizon, EmptyQueueReportsNever)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), EventQueue::kNever);
}

TEST(EventQueueHorizon, TracksEarliestEventAndArmedTimers)
{
    EventQueue eq;
    eq.scheduleAt(100, [] {});
    EXPECT_EQ(eq.nextTick(), 100u);
    // An earlier schedule lowers the cached horizon in place...
    eq.scheduleAt(60, [] {});
    EXPECT_EQ(eq.nextTick(), 60u);
    // ...a later one (overflow-heap range) leaves it alone...
    eq.scheduleAt(EventQueue::kRingSize * 4, [] {});
    EXPECT_EQ(eq.nextTick(), 60u);
    // ...and armed timers bound it like any other event, which is what
    // lets the window coordinator skip idle stretches without ever
    // skipping a pending retransmit/retry fire.
    eq.armTimer(30, [] {});
    EXPECT_EQ(eq.nextTick(), 30u);
}

TEST(EventQueueHorizon, DrainTickRecomputesExactHorizon)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.scheduleAt(10, [&] {
        seen.push_back(eq.now());
        eq.scheduleAt(12, [&] { seen.push_back(eq.now()); });
    });
    eq.scheduleAt(40, [&] { seen.push_back(eq.now()); });
    EXPECT_EQ(eq.nextTick(), 10u);
    eq.drainTick(10);
    EXPECT_EQ(seen, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.nextTick(), 12u); // scheduled during the drain
    eq.drainTick(12);
    EXPECT_EQ(eq.nextTick(), 40u);
    eq.drainTick(40);
    EXPECT_EQ(eq.nextTick(), EventQueue::kNever);
}

TEST(EventQueueHorizon, CancelledTimerIsConservativeNeverLate)
{
    EventQueue eq;
    int dead = 0, live = 0;
    EventQueue::TimerId id = eq.armTimer(50, [&] { ++dead; });
    eq.scheduleAt(200, [&] { ++live; });
    eq.cancelTimer(id);
    // Lazy cancellation may keep the horizon at the dead fire's tick (a
    // window edge there just finds a no-op wrapper) — conservative is
    // fine, but it must never report *past* the real work.
    EXPECT_LE(eq.nextTick(), 200u);
    while (eq.nextTick() != EventQueue::kNever)
        eq.drainTick(eq.nextTick());
    EXPECT_EQ(dead, 0);
    EXPECT_EQ(live, 1);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(InlineCallback, MoveTransfersOwnershipAndDestroysOnce)
{
    LifeProbe::live = 0;
    LifeProbe::invoked = 0;
    int hits = 0;
    {
        InlineCallback a = LifeProbe(&hits);
        EXPECT_EQ(LifeProbe::live, 1);
        EXPECT_TRUE(static_cast<bool>(a));

        InlineCallback b = std::move(a);
        EXPECT_EQ(LifeProbe::live, 1) << "relocate must destroy source";
        EXPECT_FALSE(static_cast<bool>(a));
        EXPECT_TRUE(static_cast<bool>(b));

        InlineCallback c;
        EXPECT_FALSE(static_cast<bool>(c));
        c = std::move(b);
        EXPECT_EQ(LifeProbe::live, 1);
        EXPECT_FALSE(static_cast<bool>(b));

        c();
        EXPECT_EQ(hits, 1);
        EXPECT_EQ(LifeProbe::invoked, 1);
    }
    EXPECT_EQ(LifeProbe::live, 0);
}

TEST(InlineCallback, MoveAssignOverExistingDestroysOld)
{
    LifeProbe::live = 0;
    int x = 0, y = 0;
    {
        InlineCallback a = LifeProbe(&x);
        InlineCallback b = LifeProbe(&y);
        EXPECT_EQ(LifeProbe::live, 2);
        a = std::move(b); // destroys a's probe, relocates b's
        EXPECT_EQ(LifeProbe::live, 1);
        a();
        EXPECT_EQ(x, 0);
        EXPECT_EQ(y, 1);
    }
    EXPECT_EQ(LifeProbe::live, 0);
}

TEST(InlineCallback, QueueDestroysPendingCallbacksOnReset)
{
    LifeProbe::live = 0;
    int hits = 0;
    EventQueue eq;
    eq.schedule(10, LifeProbe(&hits));
    eq.schedule(EventQueue::kRingSize * 2, LifeProbe(&hits));
    EXPECT_EQ(LifeProbe::live, 2);
    eq.reset();
    EXPECT_EQ(LifeProbe::live, 0);
    EXPECT_EQ(hits, 0);
}

} // namespace
} // namespace flashsim
