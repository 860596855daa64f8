#include "magic/magic.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/logging.hh"
#include "verify/sentinel.hh"

namespace
{

/**
 * Debug aid: set FS_TRACE_LINE=<line number> (decimal) to trace every
 * handler invocation for that cache line on stderr.
 */
bool
traceLine(flashsim::Addr addr)
{
    static const char *env = std::getenv("FS_TRACE_LINE");
    static const unsigned long long line =
        env ? std::strtoull(env, nullptr, 0) : 0;
    return env != nullptr && flashsim::lineNumber(addr) == line;
}

} // namespace

namespace flashsim::magic
{

using protocol::Gate;
using protocol::HandlerId;
using protocol::HandlerResult;
using protocol::Message;
using protocol::MsgType;

Magic::Magic(EventQueue &eq, NodeId self, const MagicParams &params,
             const protocol::AddressMap &map,
             const protocol::HandlerPrograms *programs, MagicHooks hooks)
    : eq_(eq), self_(self), params_(params), map_(map),
      hooks_(std::move(hooks)), dir_(),
      mem_(params.memAccess, params.memBusy),
      jumpTable_(JumpTable::standard(params.speculation)),
      buffers_(params.dataBuffers, params.ideal), probe_(*this),
      engine_(self, dir_, map_, probe_)
{
    if (params_.usePpEmulator && !params_.ideal) {
        if (programs == nullptr)
            fatal("Magic: usePpEmulator requires handler programs");
        auto model =
            std::make_unique<PpTimingModel>(*programs, dir_, params_);
        ppModel_ = model.get();
        timing_ = std::move(model);
    } else {
        timing_ = std::make_unique<TableTimingModel>();
    }
    if (params_.monitorPages) {
        // Page-monitoring counters grow one entry per remotely accessed
        // local page; pre-size past any workload in-tree so the counting
        // in the handler path never rehashes.
        pageRemoteAccesses.reserve(1024);
    }
}

Magic::~Magic() = default;

Tick
Magic::inboundArrival(Cycles base, Tick &last)
{
    Tick t = eq_.now() + base;
    if (sentinel_ && sentinel_->injector().enabled()) {
        t += sentinel_->injector().inboundStall(self_);
        // Queue-full backpressure must not reorder the queue: clamp to
        // the latest stalled arrival (same-tick ties keep FIFO order).
        t = std::max(t, last);
        last = t;
    }
    return t;
}

void
Magic::fromProcessor(const Message &msg)
{
    Tick t = inboundArrival(params_.piInbound, lastPiArrival_);
    eq_.scheduleAt(t, [this, msg] { enqueue(piQueue_, msg); });
}

void
Magic::fromProcessorAfter(const Message &msg, Cycles delay)
{
    if (sentinel_ && sentinel_->injector().enabled()) {
        eq_.schedule(delay, [this, msg] { fromProcessor(msg); });
        return;
    }
    eq_.scheduleAt(eq_.now() + delay + params_.piInbound,
                   [this, msg] { enqueue(piQueue_, msg); });
}

void
Magic::fromNetwork(const Message &msg)
{
    // Transaction-kill injection: an initial request can die at the
    // home node's NI before it touches any protocol state — the
    // directory has never heard of it, so the requester's transaction
    // timeout can safely re-issue from scratch. Only initial requests
    // arriving at their home qualify; dropping a forwarded or reply
    // message would strand directory state no retry could clear.
    if (sentinel_ && sentinel_->injector().enabled() &&
        (msg.type == MsgType::NetGet || msg.type == MsgType::NetGetx) &&
        map_.homeOf(msg.addr) == self_ &&
        sentinel_->injector().txnDrop(self_)) {
        ++reqDropsInjected;
        sentinel_->recordInjected(self_, eq_.now(), msg,
                                  verify::TraceEntry::Kind::DroppedRequest);
        return;
    }
    Tick t = inboundArrival(params_.niInbound, lastNiArrival_);
    eq_.scheduleAt(t, [this, msg] { enqueue(niQueue_, msg); });
}

void
Magic::sendBlock(NodeId dest, Addr addr, std::uint32_t bytes)
{
    const Addr base = lineBase(addr);
    const std::uint32_t chunks =
        (bytes + static_cast<std::uint32_t>(kLineSize) - 1) /
        static_cast<std::uint32_t>(kLineSize);
    // The PP runs the send handler once to program the transfer; the
    // data-transfer logic then streams chunks at memory speed, with a
    // couple of PP cycles per chunk to compose each header.
    const Cycles setup = params_.ideal ? 0 : 8;
    ppOcc.addBusy(setup);
    Tick launch = eq_.now() + setup;
    for (std::uint32_t i = 0; i < chunks; ++i) {
        Tick data_ready = mem_.read(launch);
        if (!params_.ideal)
            ppOcc.addBusy(2);
        Message m;
        m.type = MsgType::NetBlockXfer;
        m.src = self_;
        m.dest = dest;
        m.requester = self_;
        m.addr = base + static_cast<Addr>(i) * kLineSize;
        m.aux = chunks - 1 - i; // chunks remaining after this one
        ++blockChunksSent;
        Tick t = std::max(launch + params_.niOutbound, data_ready);
        if (hooks_.toNetworkAt)
            hooks_.toNetworkAt(m, t);
        else
            eq_.scheduleAt(t, [this, m] { hooks_.toNetwork(m); });
        launch = t; // chunks stay ordered on the wire
    }
}

Magic::Pending
Magic::InQueue::pop()
{
    Pending p = std::move(items[head++]);
    if (head == items.size()) {
        items.clear();
        head = 0;
    } else if (head >= 64 && 2 * head >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    return p;
}

void
Magic::enqueue(InQueue &q, const Message &msg)
{
    // Injected replacement-hint perturbation: a dropped hint leaves a
    // stale sharer pointer in the directory (cleaned up by a later
    // invalidation), a duplicated one a double entry — both states the
    // real machine can reach through lost or replayed hint messages.
    int copies = 1;
    if (sentinel_ && sentinel_->injector().enabled() &&
        (msg.type == MsgType::PiReplaceHint ||
         msg.type == MsgType::NetReplaceHint)) {
        switch (sentinel_->injector().hintFate(self_)) {
          case verify::FaultInjector::HintFate::Drop:
            sentinel_->recordInjected(self_, eq_.now(), msg,
                                      verify::TraceEntry::Kind::DroppedHint);
            return;
          case verify::FaultInjector::HintFate::Duplicate:
            sentinel_->recordInjected(self_, eq_.now(), msg,
                                      verify::TraceEntry::Kind::DupedHint);
            copies = 2;
            break;
          case verify::FaultInjector::HintFate::Deliver:
            break;
        }
    }
    for (int c = 0; c < copies; ++c) {
        ++msgsIn;
        Pending p{msg, eq_.now(), false, 0};
        // Speculative memory initiation happens as the inbox preprocesses
        // the incoming header, concurrently with the PP working on earlier
        // messages — this is what hides protocol processing behind the
        // memory access time even when the PP is backed up (Section 4.3).
        // Each early read stages into one of the 16 data buffers.
        if (!params_.ideal && map_.homeOf(msg.addr) == self_ &&
            jumpTable_.lookup(msg.type).specRead && buffers_.acquire()) {
            p.specIssued = true;
            p.specReady = mem_.read(eq_.now() + params_.jumpTable);
            ++specIssued;
        }
        q.push(std::move(p));
    }
    tryDispatch();
}

void
Magic::tryDispatch()
{
    if (ppBusy_)
        return;
    InQueue *q = nullptr;
    if (!piQueue_.empty() && !niQueue_.empty()) {
        q = pickPiFirst_ ? &piQueue_ : &niQueue_;
        pickPiFirst_ = !pickPiFirst_;
    } else if (!piQueue_.empty()) {
        q = &piQueue_;
    } else if (!niQueue_.empty()) {
        q = &niQueue_;
    } else {
        return;
    }

    Pending p = q->pop();
    queueStallCycles += eq_.now() - p.enqueued;
    ppBusy_ = true;

    // Inbox: queue selection/arbitration, then the jump-table lookup.
    Cycles lead =
        params_.inboxArb + (params_.ideal ? 0 : params_.jumpTable);
    eq_.schedule(lead, [this, p = std::move(p)] { runHandler(p); });
}

void
Magic::runHandler(const Pending &pending)
{
    const Message &msg = pending.msg;
    const Tick now = eq_.now();
    const NodeId home = map_.homeOf(msg.addr);
    const bool at_home = home == self_;

    setLogNode(self_);

    // Injector-forced NACK: the request is bounced as if the line were
    // in a transient state, exercising the retry paths without waiting
    // for a genuine race.
    if (sentinel_ && at_home && sentinel_->injector().enabled() &&
        (msg.type == MsgType::PiGet || msg.type == MsgType::PiGetx ||
         msg.type == MsgType::NetGet || msg.type == MsgType::NetGetx) &&
        sentinel_->injector().rollNack(self_)) {
        injectedNack(pending, pending.specIssued);
        setLogNode(kInvalidNode);
        return;
    }

    // Speculative memory initiation: usually already launched by the
    // inbox at message arrival; the ideal machine (or an inbox that ran
    // out of data buffers) starts the read here instead.
    bool spec_issued = pending.specIssued;
    bool release_buffer = pending.specIssued;
    Tick mem_ready = pending.specReady;
    if (!spec_issued && at_home &&
        jumpTable_.lookup(msg.type).specRead) {
        mem_ready = mem_.read(now);
        spec_issued = true;
        ++specIssued;
    }

    // Only the PP model reads the processor cache's dirty bit (it is a
    // handler register); the table model and the ideal machine do not,
    // so they skip the cache probe unless the line is being traced.
    const bool trace = traceLine(msg.addr);
    const bool cache_dirty =
        (ppModel_ != nullptr || trace) && hooks_.cacheHoldsDirty(msg.addr);
    timing_->preHandler(msg, self_, home, cache_dirty);
    HandlerResult res = engine_.handle(msg);
    HandlerTiming ht = timing_->occupancy(msg, res);

    if (trace) {
        std::fprintf(stderr,
                     "[magic %u t=%llu] %s -> %s occ=%llu out=%zu "
                     "cdirty=%d\n",
                     self_, static_cast<unsigned long long>(now),
                     msg.toString().c_str(),
                     protocol::handlerIdName(res.id),
                     static_cast<unsigned long long>(ht.occupancy),
                     res.out.size(), cache_dirty);
    }

    Cycles occ = params_.ideal ? 0 : ht.occupancy;

    // Optional PP-side page monitoring (Section 4.4): count remote
    // requests per local page, paying a couple of handler cycles.
    if (params_.monitorPages && at_home && msg.requester != self_ &&
        (msg.type == MsgType::PiGet || msg.type == MsgType::NetGet ||
         msg.type == MsgType::PiGetx || msg.type == MsgType::NetGetx)) {
        ++pageRemoteAccesses[msg.addr >> params_.pageShift];
        if (!params_.ideal)
            occ += params_.monitorCost;
    }

    ppOcc.addBusy(occ);
    ++invocations;
    handlerCount[static_cast<std::size_t>(res.id)] += 1;
    handlerCycles[static_cast<std::size_t>(res.id)] += ht.occupancy;
    if (ht.micColdMiss)
        ++micColdMisses;
    if (res.nackedRequest)
        ++nacksSent;

    // Classify read-miss services (Tables 3.3 / 4.1). NACKed requests
    // are classified when the successful retry is serviced.
    if (msg.type == MsgType::PiGet || msg.type == MsgType::NetGet) {
        const bool local = msg.requester == self_;
        switch (res.id) {
          case HandlerId::ServeReadMemory:
            (local ? readClasses.localClean : readClasses.remoteClean) += 1;
            break;
          case HandlerId::RetrieveFromCache:
            readClasses.remoteDirtyHome += 1;
            break;
          case HandlerId::FwdHomeToDirty:
            (local ? readClasses.localDirtyRemote
                   : readClasses.remoteDirtyRemote) += 1;
            break;
          default:
            break;
        }
    }

    // Protocol-data traffic: MDC fills and victim writebacks occupy the
    // node's memory system (Section 5.2).
    for (std::uint32_t i = 0; i < ht.mdcMisses + ht.mdcWritebacks; ++i)
        mem_.protocolAccess(now);

    const Tick pp_end = now + occ;

    if (res.id == HandlerId::FetchOpService) {
        // Word-granular RMW at the home memory (fetch&op).
        mem_ready = mem_.rmw(now);
    }
    if (spec_issued && !res.memRead)
        ++specUseless; // the data in memory was not the up-to-date copy
    if (!spec_issued && res.memRead) {
        // Without speculation the PP initiates the access itself once it
        // has read the directory state.
        mem_ready = mem_.read(pp_end);
    }
    if (res.memWrite)
        mem_.write(pp_end);

    // Processor-cache operations directed through the PI.
    Tick cache_ready = 0;
    if (res.cacheRetrieve) {
        cache_ready =
            now + params_.cacheStateRetrieve + params_.cacheDataRetrieve;
        hooks_.cacheBusy(cache_ready);
        if (res.cacheSharing)
            hooks_.cacheDowngrade(msg.addr);
        if (res.cacheInvalidate)
            hooks_.cacheInvalidate(msg.addr);
    } else if (res.cacheInvalidate) {
        cache_ready = now + params_.cacheStateRetrieve;
        hooks_.cacheBusy(cache_ready);
        hooks_.cacheInvalidate(msg.addr);
    } else if (res.cacheSharing) {
        hooks_.cacheDowngrade(msg.addr);
    }

    // The handler's directory transition and cache operations are all
    // applied: let the sentinel update its golden state and cross-check
    // the machine. The test mutator (if any) corrupts state first so
    // tests can prove a broken handler is caught.
    if (sentinel_) {
        if (sentinel_->testMutator)
            sentinel_->testMutator(self_, msg, res);
        sentinel_->observeHandler(self_, at_home, now, msg, res);
    }

    for (const protocol::OutMsg &o : res.out) {
        Tick gate = 0;
        switch (o.gate) {
          case Gate::MemData: gate = mem_ready; break;
          case Gate::CacheData: gate = cache_ready; break;
          case Gate::None: break;
        }
        launch(o.msg, pp_end, gate);
    }

    // Message-passing notifications.
    if (msg.type == MsgType::NetBlockXfer) {
        ++blockChunksReceived;
        if (msg.aux == 0) {
            ++blocksCompleted;
            Addr base = msg.addr; // last chunk; block base not carried
            eq_.scheduleAt(pp_end, [this, base] {
                if (hooks_.blockReceived)
                    hooks_.blockReceived(base);
            });
        }
    } else if (msg.type == MsgType::NetBlockAck) {
        Addr base = msg.addr;
        eq_.scheduleAt(pp_end, [this, base] {
            if (hooks_.blockAcked)
                hooks_.blockAcked(base);
        });
    } else if (msg.type == MsgType::NetFetchOpAck) {
        Addr fa = msg.addr;
        eq_.scheduleAt(pp_end, [this, fa] {
            if (hooks_.fetchOpDone)
                hooks_.fetchOpDone(fa);
        });
    }

    // A NACK reply at the requester: tell the cache so it retries.
    if (msg.type == MsgType::NetNack) {
        ++nacksReceived;
        Tick t = pp_end + (params_.ideal ? 0 : params_.outbox);
        eq_.scheduleAt(t, [this, msg] { hooks_.toProcessor(msg); });
    }

    eq_.scheduleAt(pp_end, [this, release_buffer] {
        if (release_buffer)
            buffers_.release();
        ppBusy_ = false;
        tryDispatch();
    });

    setLogNode(kInvalidNode);
}

void
Magic::injectedNack(const Pending &pending, bool release_buffer)
{
    const Message &msg = pending.msg;
    const Tick now = eq_.now();

    // The PP reads the header, decides to bounce, and composes the
    // NACK — about what a genuine transient-state NACK costs (HomeNack
    // in Table 3.4 territory). The protocol engine and the PP timing
    // model never see the message, so neither real directory state nor
    // the emulator's internal bookkeeping is touched.
    const Cycles occ = params_.ideal ? 0 : 6;
    ppOcc.addBusy(occ);
    ++invocations;
    handlerCount[static_cast<std::size_t>(HandlerId::HomeNack)] += 1;
    handlerCycles[static_cast<std::size_t>(HandlerId::HomeNack)] += occ;
    ++nacksSent;
    if (pending.specIssued)
        ++specUseless;

    sentinel_->recordInjected(self_, now, msg,
                              verify::TraceEntry::Kind::InjectedNack);

    Message nack;
    nack.type = MsgType::NetNack;
    nack.src = self_;
    nack.dest = msg.requester;
    nack.requester = msg.requester;
    nack.addr = msg.addr;

    const Tick pp_end = now + occ;
    launch(nack, pp_end, 0);
    eq_.scheduleAt(pp_end, [this, release_buffer] {
        if (release_buffer)
            buffers_.release();
        ppBusy_ = false;
        tryDispatch();
    });
}

void
Magic::launch(const Message &msg, Tick pp_end, Tick gate)
{
    const Cycles outbox = params_.ideal ? 0 : params_.outbox;
    const Tick header_start = pp_end + outbox;

    if (!protocol::isNetMsg(msg.type)) {
        // Processor-bound reply: outbound PI processing overlaps with
        // data staging; first word hits the bus after arbitration.
        Tick t = std::max(header_start + params_.piOut(), gate) +
                 params_.busArb + params_.busTransit;
        eq_.scheduleAt(t, [this, msg] { hooks_.toProcessor(msg); });
        return;
    }

    if (msg.dest == self_) {
        // Local loopback (e.g. a NACK the home sends itself): re-enters
        // through the network interface without transiting the mesh.
        Tick t = std::max(header_start, gate);
        eq_.scheduleAt(t, [this, msg] { fromNetwork(msg); });
        return;
    }

    // Network-bound: NI outbound header processing overlaps with data
    // staging (pipelined data buffers). Hand the departure time to the
    // network directly when the wiring supports it — the intermediate
    // "call toNetwork at t" event is pure overhead.
    Tick t = std::max(header_start + params_.niOutbound, gate);
    if (hooks_.toNetworkAt)
        hooks_.toNetworkAt(msg, t);
    else
        eq_.scheduleAt(t, [this, msg] { hooks_.toNetwork(msg); });
}

} // namespace flashsim::magic
