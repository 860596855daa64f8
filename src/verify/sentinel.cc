#include "verify/sentinel.hh"

#include <iostream>

#include "sim/logging.hh"

namespace flashsim::verify
{

Sentinel::Sentinel(EventQueue &eq, const VerifyParams &params,
                   int num_nodes)
    : eq_(eq), params_(params), numNodes_(num_nodes),
      injector_(params.fault, num_nodes)
{
    rings_.reserve(static_cast<std::size_t>(num_nodes));
    for (int i = 0; i < num_nodes; ++i)
        rings_.emplace_back(params_.traceDepth);

    if (params_.watchdog) {
        watchdog_ = std::make_unique<Watchdog>(eq_, params_);
        watchdog_->onTrip = [this](const std::string &r) { onTrip(r); };
    }

    postMortemToken_ = registerPostMortem(
        [this](std::ostream &os) { writePostMortem(os, "fatal"); });
}

Sentinel::~Sentinel()
{
    if (postMortemToken_ >= 0)
        unregisterPostMortem(postMortemToken_);
}

void
Sentinel::wireOracle(CoherenceOracle::Wiring wiring)
{
    if (!params_.oracle)
        return;
    oracle_ = std::make_unique<CoherenceOracle>(
        std::move(wiring), injector_.perturbsHints());
    oracle_->onViolation = [this](const Violation &v) { onViolation(v); };
}

void
Sentinel::observeHandler(NodeId node, bool at_home, Tick now,
                         const protocol::Message &msg,
                         const protocol::HandlerResult &res)
{
    TraceEntry e;
    e.tick = now;
    e.kind = TraceEntry::Kind::Handler;
    e.type = msg.type;
    e.handler = res.id;
    e.src = msg.src;
    e.requester = msg.requester;
    e.addr = msg.addr;
    e.aux = msg.aux;
    rings_[node].record(e);

    if (oracle_)
        oracle_->onHandler(node, at_home, now, msg, res);
}

void
Sentinel::recordInjected(NodeId node, Tick now, const protocol::Message &msg,
                         TraceEntry::Kind kind)
{
    TraceEntry e;
    e.tick = now;
    e.kind = kind;
    e.type = msg.type;
    e.src = msg.src;
    e.requester = msg.requester;
    e.addr = msg.addr;
    e.aux = msg.aux;
    rings_[node].record(e);
}

void
Sentinel::txnStart(NodeId node, Addr addr)
{
    if (watchdog_)
        watchdog_->txnStart(node, addr);
}

void
Sentinel::txnRetire(NodeId node, Addr addr)
{
    if (watchdog_)
        watchdog_->txnRetire(node, addr);
}

void
Sentinel::txnRetry(NodeId node, Addr addr)
{
    if (watchdog_)
        watchdog_->txnRetry(node, addr);
}

void
Sentinel::finalCheck()
{
    if (oracle_)
        oracle_->finalCheck(eq_.now());
}

void
Sentinel::onViolation(const Violation &v)
{
    if (params_.haltOnViolation) {
        // fatal() replays the registered post-mortem (trace rings,
        // watchdog status) before aborting.
        fatal("coherence violation [%s] at t=%llu node %u line %#llx: %s",
              v.kind.c_str(), static_cast<unsigned long long>(v.tick),
              v.node, static_cast<unsigned long long>(v.addr),
              v.detail.c_str());
    }
    warn("coherence violation [%s] at t=%llu node %u line %#llx: %s",
         v.kind.c_str(), static_cast<unsigned long long>(v.tick), v.node,
         static_cast<unsigned long long>(v.addr), v.detail.c_str());
    dumpOnce("coherence violation");
}

void
Sentinel::onTrip(const std::string &reason)
{
    if (params_.haltOnTrip)
        fatal("watchdog trip at t=%llu: %s",
              static_cast<unsigned long long>(eq_.now()), reason.c_str());
    warn("watchdog trip at t=%llu: %s",
         static_cast<unsigned long long>(eq_.now()), reason.c_str());
    dumpOnce("watchdog trip");
}

void
Sentinel::dumpOnce(const char *reason)
{
    if (dumped_)
        return;
    dumped_ = true;
    writePostMortem(std::cerr, reason);
    std::cerr.flush();
}

void
Sentinel::writeSummary(std::ostream &os) const
{
    os << "sentinel:";
    if (oracle_)
        os << " oracle(" << oracle_->trackedLines() << " lines, "
           << oracle_->violations() << " violations)";
    if (watchdog_)
        os << " watchdog(" << watchdog_->retired() << " retired, "
           << watchdog_->trips() << " trips)";
    if (injector_.enabled())
        os << " injector(seed " << injector_.params().seed << ": "
           << injector_.nacksInjected() << " nacks, "
           << injector_.hintsDropped() << " hints dropped, "
           << injector_.hintsDuped() << " duped, " << injector_.jitterCycles()
           << " jitter cyc, " << injector_.stallCycles() << " stall cyc)";
    if (injector_.params().wireLossy())
        os << " wire(" << injector_.wireDropsInjected() << " drops, "
           << injector_.wireDupsInjected() << " dups, "
           << injector_.wireReordersInjected() << " reorders)";
    if (injector_.reqDropsInjected() != 0)
        os << " txn(" << injector_.reqDropsInjected()
           << " requests dropped)";
    os << "\n";
}

void
Sentinel::writePostMortem(std::ostream &os, const char *reason) const
{
    os << "=== sentinel post-mortem (" << reason << ") t=" << eq_.now()
       << " ===\n";
    if (watchdog_)
        watchdog_->writeStatus(os);
    if (oracle_) {
        os << "oracle: " << oracle_->violations() << " violation(s), "
           << oracle_->trackedLines() << " line(s) tracked\n";
        for (const Violation &v : oracle_->violationLog())
            os << "  [" << v.kind << "] t=" << v.tick << " node " << v.node
               << " line 0x" << std::hex << v.addr << std::dec << ": "
               << v.detail << "\n";
    }
    if (injector_.enabled())
        os << "injector: seed " << injector_.params().seed << ", "
           << injector_.nacksInjected() << " nack(s) injected, "
           << injector_.hintsDropped() << " hint(s) dropped, "
           << injector_.hintsDuped() << " duplicated, "
           << injector_.jitterCycles() << " jitter cycle(s), "
           << injector_.stallCycles() << " stall cycle(s)\n";
    if (injector_.params().wireLossy() ||
        injector_.reqDropsInjected() != 0)
        os << "injected loss: " << injector_.wireDropsInjected()
           << " wire drop(s), " << injector_.wireDupsInjected()
           << " wire dup(s), " << injector_.wireReordersInjected()
           << " wire reorder(s), " << injector_.reqDropsInjected()
           << " request(s) dropped at home NI\n";
    os << "recent activity (oldest first, ring depth "
       << params_.traceDepth << "):\n";
    for (int n = 0; n < numNodes_; ++n)
        rings_[static_cast<std::size_t>(n)].dump(
            os, static_cast<NodeId>(n));
    os << "=== end post-mortem ===\n";
}

} // namespace flashsim::verify
