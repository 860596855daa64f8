/**
 * @file
 * Proves the hot path is allocation-free in steady state: the event
 * queue's schedule()/step(), a workload coroutine's read that hits
 * in the cache (tango::Env::read -> Processor -> Cache -> resume), and
 * coherence misses that round-trip through MAGIC and the mesh (a read
 * miss evicting a sharer, a write miss invalidating one), with and
 * without the coherence oracle and watchdog attached.
 *
 * The whole point of InlineCallback + the bucket ring is that the
 * per-event path performs zero heap allocations once bucket capacity
 * has warmed up (std::function used to allocate on every capture past
 * 16 bytes). This binary-wide counting operator new makes that claim a
 * test instead of a hope: every allocation anywhere in the test binary
 * bumps the counter, and the steady-state loop asserts it stays put.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cpu/cache.hh"
#include "machine/machine.hh"
#include "sim/event_queue.hh"
#include "tango/runtime.hh"
#include "tango/task.hh"
#include "verify/sentinel.hh"

namespace
{
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t size) noexcept
{
    ++g_allocs;
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept
{
    ++g_allocs;
    // aligned_alloc wants a nonzero multiple of the alignment.
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
    return std::aligned_alloc(a, rounded);
}

void *
orThrow(void *p)
{
    if (p == nullptr)
        throw std::bad_alloc{};
    return p;
}
} // namespace

// Every replaceable form of new and delete is defined here, so no
// allocation anywhere in the binary (the sanitizers' nothrow and
// over-aligned paths included) escapes the counter or reaches a
// different deallocator than the one that allocated it.

void *
operator new(std::size_t size)
{
    return orThrow(countedAlloc(size));
}

void *
operator new[](std::size_t size)
{
    return orThrow(countedAlloc(size));
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return orThrow(countedAlignedAlloc(size, align));
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(size, align);
}

// GCC's -Wmismatched-new-delete flags the free() calls below as
// releasing memory from operator new. It does not see that operator new
// is replaced above with malloc/aligned_alloc, so every pointer these
// deletes receive did come from the C allocator: a false positive,
// silenced for exactly these definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace flashsim
{
namespace
{

/**
 * The largest capture shape scheduled in-tree (MAGIC's dispatch lambda:
 * object pointer + a Message-sized payload + bookkeeping), filling
 * InlineCallback's entire inline budget.
 */
struct MaxPayload
{
    void *self;
    std::uint64_t addr, arg;
    std::uint32_t fields[6];
    std::uint8_t flags[2];
};
// [&sink, p] below fills InlineCallback::kInlineBytes exactly; the
// constructor's static_assert rejects anything larger at compile time.
static_assert(sizeof(MaxPayload) + sizeof(void *) ==
              InlineCallback::kInlineBytes);

TEST(AllocFree, SteadyStateScheduleDoesNotAllocate)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint32_t lcg = 1;
    auto post = [&] {
        lcg = lcg * 1664525u + 1013904223u;
        const Cycles d = (lcg >> 20) & 0xff;
        MaxPayload p{&eq, sink, d, {1, 2, 3, 4, 5, 6}, {7, 8}};
        eq.schedule(d, [&sink, p] { sink += p.addr ^ p.arg; });
    };

    // Warm-up: grow every bucket vector to its steady-state capacity
    // over many ring wraps of the same delay distribution.
    for (int i = 0; i < 50000; ++i) {
        post();
        eq.step();
    }

    const std::uint64_t before = g_allocs.load();
    for (int i = 0; i < 20000; ++i) {
        post();
        eq.step();
    }
    EXPECT_EQ(g_allocs.load(), before)
        << "EventQueue::schedule()/step() allocated in steady state";
    ASSERT_NE(sink, 0u);
}

TEST(AllocFree, MaxCaptureIntoWarmBucketDoesNotAllocate)
{
    // A single schedule() into a bucket with spare capacity performs no
    // allocation even for the largest in-tree capture: the callback
    // lives inline in the Event, and a drained bucket keeps its
    // capacity (freshen() clears, it does not shrink).
    EventQueue eq;
    int hits = 0;
    for (int i = 0; i < 16; ++i)
        eq.schedule(1, [&hits] { ++hits; });
    for (int i = 0; i < 16; ++i)
        eq.step();
    EXPECT_EQ(hits, 16);
    // now() == 1; delay 0 lands back in the just-drained bucket.
    const std::uint64_t before = g_allocs.load();
    MaxPayload p{&eq, 1, 2, {1, 2, 3, 4, 5, 6}, {7, 8}};
    eq.schedule(0, [&hits, p] { hits += static_cast<int>(p.arg); });
    EXPECT_EQ(g_allocs.load(), before);
    eq.run();
    EXPECT_EQ(hits, 18);
}

/** Reads @p n lines round-robin out of @p lines starting at @p base. */
tango::Task
readLoop(tango::Env &env, Addr base, int lines, int n, int *done)
{
    for (int i = 0; i < n; ++i) {
        co_await env.read(base + static_cast<Addr>(i % lines) * kLineSize);
        ++*done;
    }
}

TEST(AllocFree, WarmReadHitRoundTripDoesNotAllocate)
{
    // A standalone Env on node 0's processor: every read schedules the
    // processor's event, hits in the cache and resumes the coroutine.
    machine::Machine m(machine::MachineConfig::flash(2, 64u * 1024u));
    constexpr int kLines = 64;
    const Addr base = m.alloc(kLines * kLineSize, 0);
    tango::Env env(&m.node(0).proc(), 0, 1);

    // Cold pass: fill the lines. Warm pass: enough hits to wrap the
    // event ring, so every bucket already has its capacity.
    int done = 0;
    {
        tango::Task fill = readLoop(env, base, kLines, kLines, &done);
        fill.start();
        m.drain();
        tango::Task warm = readLoop(env, base, kLines, 20000, &done);
        warm.start();
        m.drain();
    }
    ASSERT_EQ(done, kLines + 20000);
    const std::uint64_t misses = m.node(0).cache().readMisses;

    // The coroutine frame is the one allocation; make it first.
    tango::Task t = readLoop(env, base, kLines, 8000, &done);
    const std::uint64_t before = g_allocs.load();
    t.start();
    m.drain();
    EXPECT_EQ(g_allocs.load(), before)
        << "a warm read hit through tango::Env::read allocated";
    EXPECT_TRUE(t.done());
    EXPECT_EQ(done, kLines + 28000);
    EXPECT_EQ(m.node(0).cache().readMisses, misses);
}

/**
 * A 64 KB-cache FLASH machine; when @p verified, the coherence oracle
 * and the watchdog are on (record only). The watchdog's first sample is
 * set past the run: its sampling events would otherwise now and then
 * share a ring bucket with a protocol event and raise that bucket's
 * capacity once, which is warm-up, not a per-miss allocation. Its
 * per-transaction bookkeeping still runs on every miss.
 */
machine::MachineConfig
missConfig(int procs, bool verified)
{
    machine::MachineConfig cfg =
        machine::MachineConfig::flash(procs, 64u * 1024u);
    if (verified) {
        cfg.magic.verify.oracle = true;
        cfg.magic.verify.watchdog = true;
        cfg.magic.verify.haltOnViolation = false;
        cfg.magic.verify.haltOnTrip = false;
        cfg.magic.verify.watchdogInterval = Cycles{1} << 40;
    }
    return cfg;
}

/** Warm-up and measured iterations of the miss loops below. An
 *  iteration's sends land on ring buckets a loop period apart, so the
 *  warm-up runs enough iterations to give every one of the event
 *  ring's buckets its capacity (kRingSize of them) several times over. */
constexpr int kWarmIters = 4 * static_cast<int>(EventQueue::kRingSize);
constexpr int kMeasuredIters = 1000;

TEST(AllocFree, WarmReadMissRoundTripDoesNotAllocate)
{
    for (bool verified : {false, true}) {
        SCOPED_TRACE(verified ? "oracle and watchdog on" : "unverified");
        machine::Machine m(missConfig(2, verified));
        // Three lines homed at node 1 that share one set of node 0's
        // two-way cache (the set stride is 32 KB): reading them in turn
        // misses every time, each miss evicting a Shared line (a
        // replacement hint to the home) and fetching the next one from
        // the remote home.
        constexpr Addr kSetStride = 32u * 1024u;
        const Addr base = m.alloc(3 * kSetStride, 1);
        const Addr lines[3] = {base, base + kSetStride,
                               base + 2 * kSetStride};

        std::uint64_t before = 0, after = 0, misses = 0, hints = 0;
        cpu::Cache &cache = m.node(0).cache();
        m.run([&](tango::Env &env) -> tango::Task {
            if (env.id() != 0)
                co_return;
            for (int i = 0; i < kWarmIters + kMeasuredIters; ++i) {
                if (i == kWarmIters) {
                    misses = cache.readMisses;
                    hints = cache.replaceHints;
                    before = g_allocs.load();
                }
                co_await env.read(lines[i % 3]);
            }
            after = g_allocs.load();
            misses = cache.readMisses - misses;
            hints = cache.replaceHints - hints;
        });
        m.drain();

        EXPECT_EQ(after, before) << "a warm read miss allocated";
        EXPECT_EQ(misses, static_cast<std::uint64_t>(kMeasuredIters));
        EXPECT_EQ(hints, static_cast<std::uint64_t>(kMeasuredIters));
        if (verified) {
            EXPECT_EQ(m.sentinel()->violations(), 0u);
        }
    }
}

TEST(AllocFree, WriteMissInvalidatingSharerDoesNotAllocate)
{
    for (bool verified : {false, true}) {
        SCOPED_TRACE(verified ? "oracle and watchdog on" : "unverified");
        machine::Machine m(missConfig(3, verified));
        // One line homed at node 2. Nodes 0 and 1 take turns (a host
        // flag, polled with a short busy spell and a cache hit on a
        // private line, since busy() alone never suspends): node 1 reads the line from node 0's
        // dirty copy (a 3-hop miss leaving both Shared), then node 0
        // writes it, an upgrade miss whose home handler invalidates
        // node 1. Each side also waits for its own cache to reach the
        // state the other side's next step depends on.
        const Addr x = m.alloc(kLineSize, 2);
        const Addr poll[2] = {m.alloc(kLineSize, 0), m.alloc(kLineSize, 1)};
        int turn = 0;

        std::uint64_t before = 0, after = 0, upgrades = 0, invals = 0;
        cpu::Cache &writer = m.node(0).cache();
        cpu::Cache &sharer = m.node(1).cache();
        m.run([&](tango::Env &env) -> tango::Task {
            const int me = env.id();
            if (me > 1)
                co_return;
            for (int i = 0; i < kWarmIters + kMeasuredIters; ++i) {
                while (turn != me) {
                    co_await env.busy(40);
                    co_await env.read(poll[me]);
                }
                if (me == 0) {
                    if (i == kWarmIters) {
                        upgrades = writer.writeMisses;
                        invals = sharer.invalsReceived;
                        before = g_allocs.load();
                    }
                    co_await env.write(x);
                    while (writer.state(x) !=
                           cpu::Cache::State::Exclusive) {
                        co_await env.busy(40);
                        co_await env.read(poll[0]);
                    }
                } else {
                    while (sharer.state(x) != cpu::Cache::State::Invalid) {
                        co_await env.busy(40);
                        co_await env.read(poll[1]);
                    }
                    co_await env.read(x);
                    if (i == kWarmIters + kMeasuredIters - 1) {
                        after = g_allocs.load();
                        upgrades = writer.writeMisses - upgrades;
                        invals = sharer.invalsReceived - invals;
                    }
                }
                turn = 1 - me;
            }
        });
        m.drain();

        EXPECT_EQ(after, before)
            << "a write miss invalidating a sharer allocated";
        EXPECT_EQ(upgrades, static_cast<std::uint64_t>(kMeasuredIters));
        EXPECT_EQ(invals, static_cast<std::uint64_t>(kMeasuredIters));
        if (verified) {
            EXPECT_EQ(m.sentinel()->violations(), 0u);
        }
    }
}

} // namespace
} // namespace flashsim
