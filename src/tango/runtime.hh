/**
 * @file
 * The workload execution environment (Tango Lite analogue).
 *
 * Env is the per-processor handle a workload coroutine uses to touch
 * the simulated machine: timed loads/stores, compute time, and
 * synchronization primitives that generate real coherence traffic
 * (test-and-test&set locks, sense-reversing counter barriers spinning
 * on a flag line). Time spent inside synchronization is attributed to
 * the Sync execution-time category.
 */

#ifndef FLASHSIM_TANGO_RUNTIME_HH_
#define FLASHSIM_TANGO_RUNTIME_HH_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/processor.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "tango/task.hh"

namespace flashsim::tango
{

class Env;

/** Awaitable for a timed read or write. */
struct MemAwaiter
{
    Env *env;
    Addr addr;
    bool isWrite;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
};

/** Synchronous awaitable advancing compute time. */
struct BusyAwaiter
{
    Env *env;
    std::uint64_t instrs;

    bool await_ready() noexcept;
    void await_suspend(std::coroutine_handle<>) noexcept {}
    void await_resume() const noexcept {}
};

/**
 * The machine's per-tick sync phase. Every access to shared host-side
 * lock/barrier state parks here at its processor's current tick, and
 * the machine's run loop, once that tick's events have drained, runs
 * the parked continuations in (node, park sequence) order. Lock
 * winners and barrier arrival order therefore depend only on simulated
 * time and node ids, never on which coroutine the event queue happened
 * to resume first.
 */
class SyncPhase
{
  public:
    /** Defer @p h, suspended on behalf of @p node, into the phase at
     *  @p tick (>= the machine's current tick). */
    void
    park(Tick tick, NodeId node, std::coroutine_handle<> h)
    {
        ops_.push_back(Op{tick, node, seq_++, h});
        minTick_ = std::min(minTick_, tick);
    }

    /** True while the phase at exactly @p tick is running: a sync
     *  point reached inside it continues inline. */
    bool inlineOk(Tick tick) const { return runTick_ == tick; }

    /** Earliest parked tick, or EventQueue::kNever. O(1): the run
     *  loop asks for it on every simulated tick. */
    Tick nextTick() const { return minTick_; }

    /**
     * Run the phase at @p u: snapshot the tick-@p u operations, resume
     * them in (node, seq) order, drain the tick-@p u events they
     * scheduled on @p eq, and repeat until nothing is parked at @p u
     * (a resumed coroutine may park again at the same tick).
     */
    void run(Tick u, EventQueue &eq);

  private:
    struct Op
    {
        Tick tick;
        NodeId node;
        std::uint64_t seq;
        std::coroutine_handle<> h;
    };

    std::vector<Op> ops_;
    /** One round's snapshot; a member so its storage is reused. */
    std::vector<Op> batch_;
    std::uint64_t seq_ = 0;
    Tick runTick_ = EventQueue::kNever;
    /** min(op.tick) over ops_: lowered by park(), reset by run()'s
     *  last scan. */
    Tick minTick_ = EventQueue::kNever;
};

/**
 * Awaitable serializing access to shared *host-side* state (lock/
 * barrier variables). Zero simulated time: it defers the continuation
 * into the machine's SyncPhase, which orders same-tick accesses by
 * node. When no machine wires one (standalone Env), it is a no-op.
 */
struct SyncPointAwaiter
{
    Env *env;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
};

/** A spin lock living on one cache line. */
struct LockVar
{
    Addr addr = 0;
    bool held = false; ///< host-side lock value
    std::uint64_t acquisitions = 0;
};

/**
 * Sense-reversing combining-tree barrier (two levels, arity 8).
 *
 * A flat counter barrier livelocks into NACK storms at 64 processors
 * (every arrival fights for exclusive ownership of one line), so like
 * real scalable machines the barrier combines within groups of eight
 * before touching the root, and releases through per-group flag lines.
 */
struct BarrierVar
{
    static constexpr int kArity = 8;

    struct Group
    {
        Addr countAddr = 0;
        Addr flagAddr = 0;
        int count = 0; ///< host-side arrival count
        int size = 0;
    };

    /** Use MAGIC's uncached fetch&op for arrivals instead of cached
     *  read-modify-write (no line ping-pong at all). */
    bool useFetchOp = false;

    std::vector<Group> groups;
    Addr rootCountAddr = 0;
    int rootCount = 0;
    int gen = 0;     ///< host-side generation
    int parties = 0; ///< number of processors participating
    std::uint64_t episodes = 0;
};

/** Awaitable for a synchronous block send (waits for the ack). */
struct BlockSendAwaiter
{
    Env *env;
    NodeId dest;
    Addr addr;
    std::uint32_t bytes;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept;
};

/** Awaitable for receiving a block (returns the completion token). */
struct BlockRecvAwaiter
{
    Env *env;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<> h);
    Addr await_resume() const noexcept;
};

/** Awaitable for an uncached fetch&op round trip. */
struct FetchOpAwaiter
{
    Env *env;
    Addr addr;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept;
};

class Env
{
  public:
    Env(cpu::Processor *proc, int id, int nprocs)
        : proc_(proc), id_(id), nprocs_(nprocs)
    {}

    int id() const { return id_; }
    int nprocs() const { return nprocs_; }
    cpu::Processor &proc() { return *proc_; }

    /** Timed read of the line containing @p addr (blocking). */
    MemAwaiter read(Addr addr) { return MemAwaiter{this, addr, false}; }
    /** Timed write (non-blocking, subject to MSHR limits). */
    MemAwaiter write(Addr addr) { return MemAwaiter{this, addr, true}; }
    /** Execute @p instrs instructions of compute. */
    BusyAwaiter busy(std::uint64_t instrs)
    {
        return BusyAwaiter{this, instrs};
    }
    /** Serialize the next shared host-state access (zero time). */
    SyncPointAwaiter syncPoint() { return SyncPointAwaiter{this}; }

    /** Acquire a test-and-test&set spin lock. */
    Task lockAcquire(LockVar &l);
    /** Release a lock (a single write to the lock line). */
    Task lockRelease(LockVar &l);
    /** Wait at a sense-reversing barrier. */
    Task barrier(BarrierVar &b);

    // -- Message passing (the FLASH block-transfer protocol) -------------
    /** Synchronously send @p bytes starting at @p addr to node @p dest
     *  as an uncached block transfer; resumes when the receiver's MAGIC
     *  acknowledges the whole block. */
    BlockSendAwaiter
    sendBlock(NodeId dest, Addr addr, std::uint32_t bytes)
    {
        return BlockSendAwaiter{this, dest, addr, bytes};
    }

    /** Wait for the next incoming block transfer; returns the line
     *  address of its final chunk. */
    BlockRecvAwaiter recvBlock() { return BlockRecvAwaiter{this}; }

    /**
     * Uncached fetch&op on @p addr's home memory word: one round trip,
     * no caching, no invalidation storm — FLASH's MAGIC performs the
     * read-modify-write at the home node. The value itself is host
     * state the caller updates on resume (like LL/SC direct execution).
     */
    FetchOpAwaiter fetchOp(Addr addr) { return FetchOpAwaiter{this, addr}; }

    /** Node-side wiring: initiate a transfer on this node's MAGIC. */
    std::function<void(NodeId, Addr, std::uint32_t, Tick)> blockSender;
    /** Node-side wiring: issue a fetch&op through this node's MAGIC. */
    std::function<void(Addr, Tick)> fetchOpSender;
    /** Machine wiring: the sync phase syncPoint() parks in. Null
     *  (standalone Env): syncPoint() is a no-op. */
    SyncPhase *syncPhase = nullptr;
    /** Node-side wiring: a fetch&op this node issued completed. */
    void notifyFetchOpDone(Addr addr);
    /** Node-side wiring: a block finished arriving here. */
    void notifyBlockReceived(Addr token);
    /** Node-side wiring: a block this node sent was acknowledged. */
    void notifyBlockAcked(Addr token);

    bool inSync() const { return inSync_; }
    void setInSync(bool v) { inSync_ = v; }

  private:
    friend struct BlockSendAwaiter;
    friend struct BlockRecvAwaiter;
    friend struct FetchOpAwaiter;

    cpu::Processor *proc_;
    int id_;
    int nprocs_;
    bool inSync_ = false;

    std::vector<Addr> arrivedBlocks_;
    std::coroutine_handle<> recvWaiter_;
    std::coroutine_handle<> sendWaiter_;
    std::coroutine_handle<> fetchOpWaiter_;
};

/** RAII-style toggle used by the sync primitives. */
class SyncRegion
{
  public:
    explicit SyncRegion(Env &env) : env_(env), prev_(env.inSync())
    {
        env_.setInSync(true);
    }
    ~SyncRegion() { env_.setInSync(prev_); }

  private:
    Env &env_;
    bool prev_;
};

} // namespace flashsim::tango

#endif // FLASHSIM_TANGO_RUNTIME_HH_
