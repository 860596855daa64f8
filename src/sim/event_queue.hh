/**
 * @file
 * The event-driven simulation core.
 *
 * FlashLite (the paper's simulator) is a multi-threaded event-driven
 * memory-system simulator. Here every hardware unit schedules closures on
 * an EventQueue; ties are broken by insertion order so simulation is
 * fully deterministic. Mesh deliveries travel in a separate *network
 * lane* ordered by a (source node, per-source sequence) key: within a
 * tick every delivery runs before every normal event, in an order fixed
 * by who sent what rather than by when the send was scheduled. That is
 * the canonical in-tick order every simulated result depends on.
 */

#ifndef FLASHSIM_SIM_EVENT_QUEUE_HH_
#define FLASHSIM_SIM_EVENT_QUEUE_HH_

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/types.hh"

namespace flashsim
{

/**
 * Deterministic discrete-event queue.
 *
 * Events are arbitrary callables. Two events scheduled for the same tick
 * run in the order they were scheduled (FIFO), which keeps hardware
 * arbitration deterministic across runs.
 *
 * Storage is two-level, sized for the simulator's delay profile (almost
 * every latency is a handful of cycles, far-future events are rare):
 *
 *  - a power-of-two ring of per-tick buckets covering the next
 *    kRingSize ticks. Each bucket is an append-only FIFO vector, so
 *    schedule() into the window is push_back into recycled storage —
 *    O(1), allocation-free in steady state, and same-tick FIFO order is
 *    the storage order itself;
 *  - a binary min-heap holding the overflow (events >= kRingSize ticks
 *    out). When the clock reaches an overflow event's tick it is
 *    promoted into that tick's bucket, merged by sequence number so the
 *    global (tick, seq) execution order is identical to a single heap.
 *
 * Callbacks are InlineCallback: stored inline in the event, with a
 * compile-time size cap instead of std::function's silent heap fallback
 * — schedule() never allocates once bucket capacity has warmed up. The
 * schedule overloads taking a plain callable construct it directly in
 * its bucket slot and drainTick() runs it there, so a callable's
 * captures are written once and read once; the Callback overloads stay
 * for callers that already hold one (timers, stored retries).
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Ticks covered by the near-term bucket ring (power of two). */
    static constexpr std::size_t kRingSize = 1024;

    /** Sentinel for "no pending event" (also used by the machine's
     *  sync phase as "nothing parked"). */
    static constexpr Tick kNever = ~Tick{0};

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time in system clock cycles. */
    Tick now() const { return _now; }

    /** Schedule @p cb to run @p delay cycles from now. */
    void
    schedule(Cycles delay, Callback cb)
    {
        scheduleAt(_now + delay, std::move(cb));
    }

    /** Schedule callable @p f @p delay cycles from now, built in place
     *  in its queue slot (no InlineCallback temporary is moved in). */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Callback>)
    void
    schedule(Cycles delay, F &&f)
    {
        put(_now + delay, std::forward<F>(f));
    }

    /** Schedule @p cb at absolute time @p when (must be >= now()). */
    void scheduleAt(Tick when, Callback cb) { put(when, std::move(cb)); }

    /** scheduleAt() for a callable built in place in its queue slot. */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Callback>)
    void
    scheduleAt(Tick when, F &&f)
    {
        put(when, std::forward<F>(f));
    }

    /**
     * Schedule a network-lane delivery at @p when (must be > now();
     * a degenerate zero-latency delivery falls back to the normal
     * lane). Within a tick every network-lane event runs before any
     * normal event, ordered by (@p src, @p srcSeq) — a canonical key
     * that depends on the senders alone, not on the order in which
     * the sends happened to be scheduled.
     */
    void
    scheduleNet(Tick when, NodeId src, std::uint64_t srcSeq, Callback cb)
    {
        putNet(when, src, srcSeq, std::move(cb));
    }

    /** scheduleNet() for a callable built in place in its queue slot. */
    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, Callback>)
    void
    scheduleNet(Tick when, NodeId src, std::uint64_t srcSeq, F &&f)
    {
        putNet(when, src, srcSeq, std::forward<F>(f));
    }

    /** True when no events remain. */
    bool
    empty() const
    {
        return ringCount_ == 0 && overflow_.empty() && netCount_ == 0 &&
               netOverflow_.empty();
    }

    /** Number of pending events. */
    std::size_t
    pending() const
    {
        return ringCount_ + overflow_.size() + netCount_ +
               netOverflow_.size();
    }

    /**
     * Earliest pending tick across all lanes (normal, network, and the
     * timer fires riding the normal lane), or kNever. O(1) when the
     * cached horizon is warm (see nextCache_) — the machine's run loop
     * asks it once per simulated tick.
     * Armed timers bound it like any other event; a lazily cancelled
     * timer leaves its stale fire event behind, which can only make the
     * answer conservatively early, never late.
     */
    Tick nextTick() const;

    /**
     * Advance to tick @p t (== nextTick()) and run everything due then:
     * first the network lane in (src, seq) order, then normal events in
     * FIFO order, including same-tick events they schedule. Events run
     * in place in their slots: the tick's normal bucket is swapped into
     * a side vector before its events run, so a same-tick schedule
     * grows the (now empty) bucket, never the vector holding the
     * running event.
     * @return number of events executed.
     */
    std::uint64_t drainTick(Tick t);

    /**
     * Run events until the queue drains or @p limit ticks have elapsed.
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = ~Tick{0});

    /** Execute exactly one event, if any; returns true if one ran. */
    bool step();

    /** Drop all pending events and reset time to zero. */
    void reset();

    // -- Cancellable / re-armable timers ------------------------------------

    /** Sentinel slot index for an invalid TimerId. */
    static constexpr std::uint32_t kNoTimerSlot = ~std::uint32_t{0};

    /**
     * Handle to a timer slot. Default-constructed handles are invalid.
     * A handle is invalidated by cancelTimer() (never by the timer
     * merely firing: the slot and its stored callback stay allocated so
     * the fire handler can rearmTimer() itself — the retransmit
     * pattern).
     */
    struct TimerId
    {
        std::uint32_t slot = kNoTimerSlot;
        std::uint32_t gen = 0;

        bool valid() const { return slot != kNoTimerSlot; }
    };

    /**
     * Arm a timer: run @p cb at absolute tick @p when, on the normal
     * lane. Unlike a bare scheduleAt, the pending fire can be cancelled
     * or moved. Cancellation is lazy — the queued event stays where it
     * is and no-ops when reached — so arm/cancel/rearm are each O(1)
     * plus at most one ordinary schedule.
     */
    TimerId armTimer(Tick when, Callback cb);

    /**
     * Re-schedule @p id's stored callback to fire at @p when instead,
     * superseding any pending fire. Legal from within the timer's own
     * callback (rearm-on-fire) and for a timer that already fired.
     * @return false on a stale or invalid handle.
     */
    bool rearmTimer(TimerId id, Tick when);

    /**
     * Cancel @p id: any pending fire becomes a no-op and the slot is
     * recycled. The stored callback is destroyed lazily when the slot
     * is next reused. Safe on stale/invalid handles.
     * @return true when a fire was actually pending.
     */
    bool cancelTimer(TimerId id);

    /** True while @p id names a live timer with a pending fire. */
    bool timerArmed(TimerId id) const;

  private:
    struct Event
    {
        template <typename F>
        Event(Tick w, std::uint64_t s, F &&f)
            : when(w), seq(s), cb(std::forward<F>(f))
        {}

        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * One tick's events. head indexes the next unexecuted event;
     * entries before it have already run (their storage is recycled
     * when the bucket drains). All live entries share the same tick:
     * the window [now, now + kRingSize) maps each ring slot to exactly
     * one tick, and a slot is fully drained before the window wraps
     * back onto it.
     */
    struct Bucket
    {
        std::vector<Event> events;
        std::size_t head = 0;
    };

    /**
     * A network-lane event: a mesh delivery keyed for canonical
     * within-tick ordering. src/seq come from the mesh (per-source
     * monotonic send counters), so the key is a property of the
     * *message*, not of which queue it was scheduled on.
     */
    struct NetEvent
    {
        template <typename F>
        NetEvent(Tick w, NodeId sr, std::uint64_t sq, F &&f)
            : when(w), src(sr), seq(sq), cb(std::forward<F>(f))
        {}

        Tick when;
        NodeId src;
        std::uint64_t seq;
        Callback cb;
    };

    struct NetLater
    {
        bool
        operator()(const NetEvent &a, const NetEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.src != b.src)
                return a.src > b.src;
            return a.seq > b.seq;
        }
    };

    /** One tick's network-lane events, kept sorted by (src, seq). */
    struct NetBucket
    {
        std::vector<NetEvent> events;
        std::size_t head = 0;
    };

    /**
     * Timer slot: callback storage plus the validity counters that make
     * lazy cancellation work. gen invalidates *handles* (bumped when
     * the slot is freed for reuse); armSeq invalidates *in-flight fire
     * events* (bumped by every arm/rearm/cancel, so a superseded fire
     * no-ops when it runs).
     */
    struct TimerSlot
    {
        std::uint32_t gen = 0;
        std::uint64_t armSeq = 0;
        bool armed = false;
        Callback cb;
    };

    static constexpr std::size_t kRingMask = kRingSize - 1;
    static constexpr std::size_t kBitWords = kRingSize / 64;

    Bucket &bucketFor(Tick when) { return ring_[when & kRingMask]; }

    void markLive(Tick when);
    void clearLive(Tick when);
    void netMarkLive(Tick when);
    void netClearLive(Tick when);

    /** Recycle a fully executed bucket's storage before reuse. */
    static void
    freshen(Bucket &b)
    {
        if (b.head != 0 && b.head == b.events.size()) {
            b.events.clear();
            b.head = 0;
        }
    }

    /** Append @p f (a callable or a Callback) to @p when's bucket, or
     *  to the overflow heap, constructing the event in place. */
    template <typename F>
    void
    put(Tick when, F &&f)
    {
        if (when < _now) [[unlikely]]
            panicPast("event", when);
        if (when - _now < kRingSize) {
            Bucket &b = bucketFor(when);
            freshen(b);
            b.events.emplace_back(when, nextSeq_++, std::forward<F>(f));
            markLive(when);
            ++ringCount_;
        } else {
            overflow_.emplace_back(when, nextSeq_++, std::forward<F>(f));
            std::push_heap(overflow_.begin(), overflow_.end(), Later{});
        }
        if (nextCacheValid_ && when < nextCache_)
            nextCache_ = when;
    }

    /** scheduleNet()'s body, constructing the event in place. */
    template <typename F>
    void
    putNet(Tick when, NodeId src, std::uint64_t srcSeq, F &&f)
    {
        if (when < _now) [[unlikely]]
            panicPast("net event", when);
        if (when == _now) {
            // Degenerate zero-latency transit: the current tick's network
            // lane may already have run, so the delivery joins the normal
            // lane (the same deterministic rule in every mode).
            put(when, std::forward<F>(f));
            return;
        }
        if (when - _now < kRingSize) {
            insertNet(when, src, srcSeq, std::forward<F>(f));
        } else {
            netOverflow_.emplace_back(when, src, srcSeq, std::forward<F>(f));
            std::push_heap(netOverflow_.begin(), netOverflow_.end(),
                           NetLater{});
        }
        if (nextCacheValid_ && when < nextCache_)
            nextCache_ = when;
    }

    /** Sorted insert into @p when's network bucket: after every live
     *  event with a smaller-or-equal (src, seq) key. Buckets are small,
     *  so a binary search + vector insert beats a deferred sort; the
     *  common in-order send lands at the end, built in place. */
    template <typename F>
    void
    insertNet(Tick when, NodeId src, std::uint64_t seq, F &&f)
    {
        NetBucket &b = netRing_[when & kRingMask];
        if (b.head != 0 && b.head == b.events.size()) {
            b.events.clear();
            b.head = 0;
        }
        auto pos = std::upper_bound(
            b.events.begin() + static_cast<std::ptrdiff_t>(b.head),
            b.events.end(), std::pair{src, seq},
            [](const std::pair<NodeId, std::uint64_t> &k,
               const NetEvent &e) {
                if (k.first != e.src)
                    return k.first < e.src;
                return k.second < e.seq;
            });
        b.events.emplace(pos, when, src, seq, std::forward<F>(f));
        netMarkLive(when);
        ++netCount_;
    }

    /** Out of line so the inline schedule paths stay small. */
    [[noreturn]] void panicPast(const char *what, Tick when) const;

    /** Recompute the earliest pending tick (bitmap scans + heap
     *  fronts); nextTick() caches the result. */
    Tick computeNextTick() const;
    /** Earliest pending tick in the ring, or kNever. */
    Tick nextRingTick() const;
    /** Earliest pending network-lane tick in its ring, or kNever. */
    Tick nextNetRingTick() const;
    /** Move overflow events for tick @p t into its bucket, seq-merged. */
    void promoteOverflow(Tick t);
    /** Move network-lane overflow for tick @p t into its bucket. */
    void promoteNetOverflow(Tick t);
    /** Queue the lazy-cancel fire wrapper for timer @p slot. */
    void scheduleTimerFire(std::uint32_t slot, Tick when);

    Tick _now = 0;
    std::uint64_t nextSeq_ = 0;

    std::array<Bucket, kRingSize> ring_{};
    /**
     * drainTick()'s side vector: the running tick's events are swapped
     * in here so same-tick schedules grow the bucket, not this vector,
     * and every event runs where it was built. Empty between drains;
     * its storage is swapped back home when a drain ends, so each
     * buffer keeps its own warmed capacity.
     */
    std::vector<Event> running_;
    /** Occupancy bitmap: bit i set iff ring_[i] has unexecuted events. */
    std::array<std::uint64_t, kBitWords> live_{};
    std::size_t ringCount_ = 0;

    /** Overflow min-heap (std::push_heap/std::pop_heap over a vector,
     *  ordered by Later so front() is the earliest event). */
    std::vector<Event> overflow_;

    /** Network lane: same two-level shape as the normal lane, but each
     *  bucket is sorted by (src, seq) instead of FIFO. */
    std::array<NetBucket, kRingSize> netRing_{};
    std::array<std::uint64_t, kBitWords> netLive_{};
    std::size_t netCount_ = 0;
    std::vector<NetEvent> netOverflow_;

    /** Timer slots + freelist of cancelled slots awaiting reuse. */
    std::vector<TimerSlot> timers_;
    std::vector<std::uint32_t> timerFree_;

    /**
     * Cached nextTick(). Exact-min maintained on schedule (an earlier
     * insert lowers it); invalidated for the duration of a drain/step
     * (callbacks schedule freely without touching it) and recomputed
     * once when the tick completes. mutable: logically const — reads
     * from another thread happen only at window edges, under the run
     * barrier's happens-before (see machine/machine.cc).
     */
    mutable Tick nextCache_ = kNever;
    mutable bool nextCacheValid_ = true;
};

} // namespace flashsim

#endif // FLASHSIM_SIM_EVENT_QUEUE_HH_
