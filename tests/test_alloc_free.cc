/**
 * @file
 * Proves the hot path is allocation-free in steady state: the event
 * queue's schedule()/step(), and a workload coroutine's read that hits
 * in the cache (tango::Env::read -> Processor -> Cache -> resume).
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

#include "machine/machine.hh"
#include "sim/event_queue.hh"
#include "tango/runtime.hh"
#include "tango/task.hh"

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

} // namespace
} // namespace flashsim
