/**
 * @file
 * Unit tests for the Tango coroutine runtime: task composition,
 * awaitable behavior, sync-time attribution, the sync phase's parking
 * and next-tick bookkeeping, the processor resuming a workload's
 * coroutine handle on each memory path, and the combining-tree
 * barrier's group structure.
 */

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "machine/machine.hh"
#include "tango/task.hh"

namespace flashsim::tango
{
namespace
{

using machine::Machine;
using machine::MachineConfig;

Task
leaf(int *counter)
{
    *counter += 1;
    co_return;
}

Task
parent(int *counter)
{
    co_await leaf(counter);
    co_await leaf(counter);
    *counter += 10;
}

TEST(Task, LazyStartAndCompletion)
{
    int counter = 0;
    Task t = leaf(&counter);
    EXPECT_EQ(counter, 0); // lazy: nothing ran yet
    t.start();
    EXPECT_EQ(counter, 1);
    EXPECT_TRUE(t.done());
}

TEST(Task, CompositionRunsChildrenInOrder)
{
    int counter = 0;
    Task t = parent(&counter);
    t.start();
    EXPECT_EQ(counter, 12);
    EXPECT_TRUE(t.done());
}

TEST(Task, MoveSemantics)
{
    int counter = 0;
    Task a = leaf(&counter);
    Task b = std::move(a);
    b.start();
    EXPECT_EQ(counter, 1);
    EXPECT_TRUE(a.done()); // moved-from task reads as done
}

TEST(Task, DefaultConstructedIsDone)
{
    Task t;
    EXPECT_TRUE(t.done());
}

TEST(TangoEnv, BusyAdvancesCursorByIssueWidth)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    m.run([](tango::Env &env) -> tango::Task {
        co_await env.busy(400); // 400 instrs = 100 cycles at 4/cycle
    });
    EXPECT_EQ(m.node(0).proc().breakdown().busy, 100u);
    EXPECT_EQ(m.node(0).proc().finishTime(), 100u);
}

TEST(TangoEnv, SubCycleInstructionsCarry)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    m.run([](tango::Env &env) -> tango::Task {
        for (int i = 0; i < 8; ++i)
            co_await env.busy(1); // 8 instrs = 2 cycles total
    });
    EXPECT_EQ(m.node(0).proc().breakdown().busy, 2u);
}

TEST(TangoEnv, SyncRegionAttributesTime)
{
    MachineConfig cfg = MachineConfig::flash(2);
    Machine m(cfg);
    m.run([](tango::Env &env) -> tango::Task {
        co_await env.busy(400);
        {
            SyncRegion region(env);
            co_await env.busy(400);
        }
        co_await env.busy(400);
    });
    const auto &bd = m.node(0).proc().breakdown();
    EXPECT_EQ(bd.busy, 200u);
    EXPECT_EQ(bd.sync, 100u);
}

TEST(TangoEnv, LockCountsAcquisitions)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    auto lock = std::make_shared<LockVar>(m.makeLock(0));
    m.run([lock](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int i = 0; i < 3; ++i) {
            co_await env.lockAcquire(*lock);
            co_await env.busy(40);
            co_await env.lockRelease(*lock);
        }
    });
    EXPECT_EQ(lock->acquisitions, 12u);
    EXPECT_FALSE(lock->held);
}

/** Parks the awaiting coroutine in @p sp at @p tick on behalf of
 *  @p node, as SyncPointAwaiter does at the processor's cursor. */
struct ParkAt
{
    SyncPhase *sp;
    Tick tick;
    NodeId node;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sp->park(tick, node, h); }
    void await_resume() const noexcept {}
};

/** Parks at each of @p ticks in turn, logging each tick it resumes at. */
Task
parkAtEach(SyncPhase &sp, NodeId node, std::vector<Tick> ticks,
           std::vector<Tick> *log)
{
    for (Tick t : ticks) {
        co_await ParkAt{&sp, t, node};
        log->push_back(t);
    }
}

TEST(SyncPhase, EmptyPhaseHasNoNextTick)
{
    SyncPhase sp;
    EXPECT_EQ(sp.nextTick(), EventQueue::kNever);
}

TEST(SyncPhase, NextTickIsEarliestParked)
{
    SyncPhase sp;
    std::vector<Tick> log;
    Task late = parkAtEach(sp, 0, {20}, &log);
    Task early = parkAtEach(sp, 1, {10}, &log);
    late.start();
    EXPECT_EQ(sp.nextTick(), 20u);
    early.start();
    EXPECT_EQ(sp.nextTick(), 10u);
}

TEST(SyncPhase, RunLeavesLaterTicksParked)
{
    SyncPhase sp;
    EventQueue eq;
    std::vector<Tick> log;
    Task late = parkAtEach(sp, 0, {20}, &log);
    Task early = parkAtEach(sp, 1, {10}, &log);
    late.start();
    early.start();
    sp.run(10, eq);
    EXPECT_EQ(log, std::vector<Tick>{10});
    EXPECT_TRUE(early.done());
    EXPECT_FALSE(late.done());
    EXPECT_EQ(sp.nextTick(), 20u);
    sp.run(20, eq);
    EXPECT_EQ(log, (std::vector<Tick>{10, 20}));
    EXPECT_TRUE(late.done());
    EXPECT_EQ(sp.nextTick(), EventQueue::kNever);
}

TEST(SyncPhase, SameTickReparkDrainsInOneRun)
{
    SyncPhase sp;
    EventQueue eq;
    std::vector<Tick> log;
    Task t = parkAtEach(sp, 0, {10, 10, 10}, &log);
    t.start();
    sp.run(10, eq);
    EXPECT_EQ(log, (std::vector<Tick>{10, 10, 10}));
    EXPECT_TRUE(t.done());
    EXPECT_EQ(sp.nextTick(), EventQueue::kNever);
}

TEST(SyncPhase, LaterParkDuringRunLowersMinimum)
{
    SyncPhase sp;
    EventQueue eq;
    std::vector<Tick> log;
    Task far = parkAtEach(sp, 1, {50}, &log);
    Task t = parkAtEach(sp, 0, {10, 30}, &log);
    far.start();
    t.start();
    sp.run(10, eq);
    // The re-park at 30 happened inside run(10), below the 50 parked
    // before it.
    EXPECT_EQ(sp.nextTick(), 30u);
    sp.run(30, eq);
    EXPECT_EQ(sp.nextTick(), 50u);
    sp.run(50, eq);
    EXPECT_EQ(log, (std::vector<Tick>{10, 30, 50}));
    EXPECT_EQ(sp.nextTick(), EventQueue::kNever);
}

/** Hands the awaiting coroutine its own handle without suspending. */
struct OwnHandle
{
    std::coroutine_handle<> *out;

    bool await_ready() const noexcept { return false; }
    bool
    await_suspend(std::coroutine_handle<> h) noexcept
    {
        *out = h;
        return false;
    }
    void await_resume() const noexcept {}
};

/** Counts its resumes: each one bumps *resumes and suspends again. */
Task
resumeCounter(std::coroutine_handle<> *self, int *resumes)
{
    co_await OwnHandle{self};
    while (true) {
        co_await std::suspend_always{};
        ++*resumes;
    }
}

/**
 * Node 0's processor driven directly with a counting coroutine's
 * handle, the way MemAwaiter passes the workload's: every memory path
 * (hit, miss, retry after MshrFull or Conflict) must resume it exactly
 * once and charge its stall to the right Breakdown slot.
 */
class ProcessorResume : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kCacheBytes = 64u * 1024u;

    ProcessorResume()
        : m_(MachineConfig::flash(2, kCacheBytes)),
          // Two lines one way-size apart share a set.
          setStride_(kCacheBytes / m_.config().cache.assoc),
          base_(m_.alloc(2 * setStride_, 0)),
          counter_(resumeCounter(&h_, &resumes_))
    {
        counter_.start();
    }

    cpu::Processor &proc() { return m_.node(0).proc(); }
    const cpu::Cache &cache() { return m_.node(0).cache(); }
    Addr line(int i) { return base_ + static_cast<Addr>(i) * kLineSize; }

    /** Run the events due up to the processor's cursor: an operation
     *  just issued has made its first attempt. */
    void
    runToCursor()
    {
        EventQueue &eq = m_.eq();
        while (eq.nextTick() <= proc().cursor())
            eq.drainTick(eq.nextTick());
    }

    /** Drain every event, then bring the cursor up to the queue's time
     *  with compute, which charges Busy only. */
    void
    settle()
    {
        m_.drain();
        const Tick now = m_.eq().now();
        if (now > proc().cursor())
            proc().busy((now - proc().cursor()) *
                            cpu::Processor::kIssueWidth,
                        false);
    }

    Machine m_;
    Addr setStride_;
    Addr base_;
    std::coroutine_handle<> h_;
    int resumes_ = 0;
    Task counter_;
};

TEST_F(ProcessorResume, ReadMissAndHitResumeOnceAndChargeRead)
{
    const cpu::Processor::Breakdown bd0 = proc().breakdown();
    proc().read(line(0), false, h_);
    m_.drain();
    EXPECT_EQ(resumes_, 1);
    EXPECT_EQ(cache().readMisses, 1u);
    const cpu::Processor::Breakdown bd1 = proc().breakdown();
    EXPECT_GT(bd1.read, bd0.read);
    EXPECT_EQ(bd1.write, bd0.write);
    EXPECT_EQ(bd1.sync, bd0.sync);

    settle();
    const cpu::Processor::Breakdown bd2 = proc().breakdown();
    proc().read(line(0), false, h_);
    m_.drain();
    EXPECT_EQ(resumes_, 2);
    EXPECT_EQ(cache().reads, 2u);
    EXPECT_EQ(cache().readMisses, 1u); // the second read hit
    const cpu::Processor::Breakdown bd3 = proc().breakdown();
    EXPECT_EQ(bd3.read, bd2.read);
    EXPECT_EQ(bd3.write, bd2.write);
    EXPECT_EQ(bd3.sync, bd2.sync);
}

TEST_F(ProcessorResume, ReadMissInSyncChargesSync)
{
    const cpu::Processor::Breakdown bd0 = proc().breakdown();
    proc().read(line(0), true, h_);
    m_.drain();
    EXPECT_EQ(resumes_, 1);
    const cpu::Processor::Breakdown bd1 = proc().breakdown();
    EXPECT_GT(bd1.sync, bd0.sync);
    EXPECT_EQ(bd1.read, bd0.read);
}

TEST_F(ProcessorResume, ReadRetriedAfterMshrFullResumesOnce)
{
    // Four non-blocking write misses to distinct sets take every MSHR;
    // each resumes at once and stalls nothing.
    const int mshrs = m_.config().cache.mshrs;
    for (int i = 0; i < mshrs; ++i) {
        proc().write(line(i), false, h_);
        runToCursor();
        EXPECT_EQ(resumes_, i + 1);
    }
    EXPECT_EQ(proc().breakdown().write, 0u);

    const cpu::Processor::Breakdown bd0 = proc().breakdown();
    proc().read(line(mshrs), false, h_);
    runToCursor();
    EXPECT_EQ(resumes_, mshrs); // parked on onMshrFree
    EXPECT_EQ(cache().reads, 0u); // MshrFull does not count the read
    m_.drain();
    EXPECT_EQ(resumes_, mshrs + 1);
    EXPECT_EQ(cache().reads, 1u);
    const cpu::Processor::Breakdown bd1 = proc().breakdown();
    EXPECT_GT(bd1.read, bd0.read);
    EXPECT_EQ(bd1.write, bd0.write);
}

TEST_F(ProcessorResume, WriteRetriedAfterConflictResumesOnce)
{
    proc().write(line(0), false, h_);
    runToCursor();
    EXPECT_EQ(resumes_, 1);

    // Same set, different tag, while line 0's miss is outstanding.
    const cpu::Processor::Breakdown bd0 = proc().breakdown();
    proc().write(line(0) + setStride_, false, h_);
    runToCursor();
    EXPECT_EQ(resumes_, 1); // parked on onMshrFree
    EXPECT_EQ(cache().writes, 1u); // Conflict does not count the write
    m_.drain();
    EXPECT_EQ(resumes_, 2);
    EXPECT_EQ(cache().writes, 2u);
    const cpu::Processor::Breakdown bd1 = proc().breakdown();
    EXPECT_GT(bd1.write, bd0.write);
    EXPECT_EQ(bd1.read, bd0.read);
}

TEST(Barrier, GroupStructureMatchesArity)
{
    MachineConfig cfg = MachineConfig::flash(16);
    Machine m(cfg);
    BarrierVar b = m.makeBarrier();
    ASSERT_EQ(b.groups.size(), 2u); // 16 procs / arity 8
    EXPECT_EQ(b.groups[0].size, 8);
    EXPECT_EQ(b.groups[1].size, 8);
    EXPECT_EQ(b.parties, 16);
}

TEST(Barrier, UnevenGroupSizes)
{
    MachineConfig cfg = MachineConfig::flash(12);
    Machine m(cfg);
    BarrierVar b = m.makeBarrier();
    ASSERT_EQ(b.groups.size(), 2u);
    EXPECT_EQ(b.groups[0].size, 8);
    EXPECT_EQ(b.groups[1].size, 4);
}

TEST(Barrier, SingleGroupForSmallMachines)
{
    MachineConfig cfg = MachineConfig::flash(4);
    Machine m(cfg);
    BarrierVar b = m.makeBarrier();
    ASSERT_EQ(b.groups.size(), 1u);
    EXPECT_EQ(b.groups[0].size, 4);
}

TEST(Barrier, SixtyFourProcessorsSynchronize)
{
    MachineConfig cfg = MachineConfig::flash(64);
    Machine m(cfg);
    auto bar = std::make_shared<BarrierVar>(m.makeBarrier());
    auto before_max = std::make_shared<Tick>(0);
    auto ok = std::make_shared<bool>(true);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        co_await env.busy(
            100 * static_cast<std::uint64_t>(env.id() + 1));
        *before_max = std::max(*before_max, env.proc().cursor());
        co_await env.barrier(*bar);
        if (env.proc().cursor() < *before_max)
            *ok = false;
    });
    EXPECT_TRUE(*ok);
    EXPECT_EQ(bar->gen, 1);
}

TEST(Barrier, ManyEpisodesStayConsistent)
{
    MachineConfig cfg = MachineConfig::flash(8);
    Machine m(cfg);
    auto bar = std::make_shared<BarrierVar>(m.makeBarrier());
    auto phase = std::make_shared<int>(0);
    auto ok = std::make_shared<bool>(true);
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 20; ++round) {
            if (env.id() == round % 8)
                *phase = round;
            co_await env.barrier(*bar);
            if (*phase != round)
                *ok = false;
            co_await env.barrier(*bar);
        }
    });
    EXPECT_TRUE(*ok);
    EXPECT_EQ(bar->gen, 40);
}

} // namespace
} // namespace flashsim::tango
