#include "tango/runtime.hh"

#include <algorithm>

namespace flashsim::tango
{

void
MemAwaiter::await_suspend(std::coroutine_handle<> h)
{
    if (isWrite)
        env->proc().write(addr, env->inSync(), h);
    else
        env->proc().read(addr, env->inSync(), h);
}

bool
BusyAwaiter::await_ready() noexcept
{
    env->proc().busy(instrs, env->inSync());
    return true;
}

void
SyncPhase::run(Tick u, EventQueue &eq)
{
    runTick_ = u;
    while (true) {
        // Round snapshot: every tick-u operation, in (node, seq) order.
        // Operations parked while the batch runs (a released coroutine
        // re-entering a sync point at this tick) form the next round.
        batch_.clear();
        Tick rest = EventQueue::kNever;
        for (std::size_t k = 0; k < ops_.size();) {
            if (ops_[k].tick == u) {
                batch_.push_back(ops_[k]);
                ops_[k] = ops_.back();
                ops_.pop_back();
            } else {
                rest = std::min(rest, ops_[k].tick);
                ++k;
            }
        }
        if (batch_.empty()) {
            // Nothing is left at u: the earliest later op is next.
            minTick_ = rest;
            break;
        }
        std::sort(batch_.begin(), batch_.end(),
                  [](const Op &a, const Op &b) {
                      if (a.node != b.node)
                          return a.node < b.node;
                      return a.seq < b.seq;
                  });
        for (const Op &op : batch_)
            op.h.resume();
        // Resumed coroutines may have scheduled zero-time events at
        // this tick (e.g. a queued write): drain them before the next
        // round so the tick stays complete.
        if (eq.nextTick() == u)
            eq.drainTick(u);
    }
    runTick_ = EventQueue::kNever;
}

bool
SyncPointAwaiter::await_ready() const noexcept
{
    return env->syncPhase == nullptr ||
           env->syncPhase->inlineOk(env->proc().cursor());
}

void
SyncPointAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->syncPhase->park(env->proc().cursor(),
                         static_cast<NodeId>(env->id()), h);
}

void
BlockSendAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->sendWaiter_ = h;
    env->blockSender(dest, addr, bytes, env->proc().cursor());
}

void
BlockSendAwaiter::await_resume() const noexcept
{
    env->proc().absorbExternalWait(env->inSync());
}

bool
BlockRecvAwaiter::await_ready() const noexcept
{
    return !env->arrivedBlocks_.empty();
}

void
BlockRecvAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->recvWaiter_ = h;
}

Addr
BlockRecvAwaiter::await_resume() const noexcept
{
    env->proc().absorbExternalWait(env->inSync());
    Addr token = env->arrivedBlocks_.front();
    env->arrivedBlocks_.erase(env->arrivedBlocks_.begin());
    return token;
}

void
FetchOpAwaiter::await_suspend(std::coroutine_handle<> h)
{
    env->fetchOpWaiter_ = h;
    env->fetchOpSender(addr, env->proc().cursor());
}

void
FetchOpAwaiter::await_resume() const noexcept
{
    env->proc().absorbExternalWait(env->inSync());
}

void
Env::notifyFetchOpDone(Addr)
{
    if (fetchOpWaiter_) {
        auto h = fetchOpWaiter_;
        fetchOpWaiter_ = nullptr;
        h.resume();
    }
}

void
Env::notifyBlockReceived(Addr token)
{
    arrivedBlocks_.push_back(token);
    if (recvWaiter_) {
        auto h = recvWaiter_;
        recvWaiter_ = nullptr;
        h.resume();
    }
}

void
Env::notifyBlockAcked(Addr)
{
    if (sendWaiter_) {
        auto h = sendWaiter_;
        sendWaiter_ = nullptr;
        h.resume();
    }
}

// Every access to the shared host-side variables (LockVar, BarrierVar)
// below sits behind a syncPoint(): the decision logic runs inside the
// machine's sync phase, in (tick, node, sequence) order, so races on
// the *host* state resolve by simulated time and node id alone. The
// simulated traffic (reads, writes, fetch&ops) is untouched —
// syncPoint costs zero simulated time.

Task
Env::lockAcquire(LockVar &l)
{
    SyncRegion region(*this);
    while (true) {
        // Test: spin on a (usually cached) read of the lock line.
        co_await read(l.addr);
        co_await syncPoint();
        if (!l.held) {
            // Test-and-set: gain exclusive ownership, then check that no
            // other processor won the race while our GETX was in flight.
            co_await write(l.addr);
            co_await syncPoint();
            if (!l.held) {
                l.held = true;
                ++l.acquisitions;
                co_return;
            }
        }
        co_await busy(32); // backoff before re-testing
    }
}

Task
Env::lockRelease(LockVar &l)
{
    SyncRegion region(*this);
    co_await syncPoint();
    l.held = false;
    co_await write(l.addr);
}

Task
Env::barrier(BarrierVar &b)
{
    SyncRegion region(*this);
    co_await syncPoint();
    ++b.episodes;
    const int my_gen = b.gen;
    BarrierVar::Group &g =
        b.groups[static_cast<std::size_t>(id() / BarrierVar::kArity)];

    // Arrival: fetch&increment on the group's count line — via cached
    // exclusive ownership (the default) or MAGIC's uncached fetch&op.
    if (b.useFetchOp) {
        co_await fetchOp(g.countAddr);
    } else {
        co_await read(g.countAddr);
        co_await write(g.countAddr);
    }
    co_await syncPoint();
    ++g.count;

    if (g.count == g.size) {
        // Last in the group: combine at the root.
        g.count = 0;
        if (b.useFetchOp) {
            co_await fetchOp(b.rootCountAddr);
        } else {
            co_await read(b.rootCountAddr);
            co_await write(b.rootCountAddr);
        }
        co_await syncPoint();
        ++b.rootCount;
        if (b.rootCount == static_cast<int>(b.groups.size())) {
            // Global last arrival: release every group.
            b.rootCount = 0;
            ++b.gen;
            for (BarrierVar::Group &rg : b.groups)
                co_await write(rg.flagAddr);
            co_return;
        }
    }
    while (true) {
        co_await syncPoint();
        if (b.gen != my_gen)
            break;
        co_await busy(16); // spin backoff
        co_await read(g.flagAddr);
    }
}

} // namespace flashsim::tango
