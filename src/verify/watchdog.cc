#include "verify/watchdog.hh"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <vector>

#include "sim/logging.hh"

namespace flashsim::verify
{

Watchdog::Watchdog(EventQueue &eq, const VerifyParams &params)
    : eq_(eq), interval_(params.watchdogInterval),
      maxAge_(params.maxTransactionAge),
      noProgressWindow_(params.noProgressWindow)
{
    if (interval_ == 0)
        fatal("Watchdog: watchdogInterval must be nonzero");
}

Watchdog::Txn *
Watchdog::findTxn(NodeId node, Addr addr)
{
    if (node >= txns_.size())
        return nullptr;
    const std::uint64_t line = lineNumber(addr);
    for (Txn &t : txns_[node])
        if (t.line == line)
            return &t;
    return nullptr;
}

void
Watchdog::txnStart(NodeId node, Addr addr)
{
    if (findTxn(node, addr) == nullptr) {
        if (node >= txns_.size())
            txns_.resize(static_cast<std::size_t>(node) + 1);
        txns_[node].push_back({lineNumber(addr), eq_.now()});
        ++outstanding_;
    }
    if (!armed_)
        arm();
}

void
Watchdog::txnRetire(NodeId node, Addr addr)
{
    if (Txn *t = findTxn(node, addr)) {
        std::vector<Txn> &v = txns_[node];
        *t = v.back();
        v.pop_back();
        --outstanding_;
    }
    ++retired_;
    lastProgress_ = eq_.now();
}

void
Watchdog::txnRetry(NodeId node, Addr addr)
{
    Txn *t = findTxn(node, addr);
    if (t == nullptr)
        return; // raced with completion; nothing to re-age
    t->start = eq_.now();
    lastProgress_ = eq_.now();
}

void
Watchdog::arm()
{
    armed_ = true;
    lastProgress_ = eq_.now();
    std::uint64_t gen = gen_;
    eq_.schedule(interval_, [this, gen] { check(gen); });
}

void
Watchdog::check(std::uint64_t gen)
{
    if (gen != gen_)
        return; // disarmed since this check was scheduled
    if (outstanding_ == 0) {
        // Quiesced: stop rescheduling so the event queue can drain.
        armed_ = false;
        ++gen_;
        return;
    }

    const Tick now = eq_.now();

    NodeId oldestNode = 0;
    std::uint64_t oldestLine = 0;
    Tick oldestStart = ~Tick{0};
    for (std::size_t n = 0; n < txns_.size(); ++n) {
        for (const Txn &t : txns_[n]) {
            if (t.start < oldestStart) {
                oldestStart = t.start;
                oldestNode = static_cast<NodeId>(n);
                oldestLine = t.line;
            }
        }
    }
    if (now - oldestStart > maxAge_) {
        trip("transaction from node " + std::to_string(oldestNode) +
             " for line 0x" +
             [&] {
                 char buf[32];
                 std::snprintf(buf, sizeof(buf), "%llx",
                               static_cast<unsigned long long>(
                                   oldestLine * kLineSize));
                 return std::string(buf);
             }() +
             " outstanding for " + std::to_string(now - oldestStart) +
             " cycles (limit " + std::to_string(maxAge_) + ")");
        return;
    }
    if (now - lastProgress_ > noProgressWindow_) {
        trip("no transaction retired for " +
             std::to_string(now - lastProgress_) + " cycles with " +
             std::to_string(outstanding_) +
             " outstanding (NACK livelock or deadlock)");
        return;
    }

    std::uint64_t g = gen_;
    eq_.schedule(interval_, [this, g] { check(g); });
}

void
Watchdog::trip(std::string reason)
{
    ++trips_;
    // Disarm: if onTrip returns (record-only policy) we must not keep
    // the event queue alive forever on a machine that will never make
    // progress again. The next txn start or retire re-arms.
    armed_ = false;
    ++gen_;
    if (onTrip)
        onTrip(reason);
}

void
Watchdog::writeStatus(std::ostream &os) const
{
    const Tick now = eq_.now();
    os << "watchdog: " << outstanding_ << " transaction(s) outstanding, "
       << retired_ << " retired, last progress at t=" << lastProgress_
       << " (now t=" << now << ")\n";

    // Oldest first; ties by node, then line.
    std::vector<std::tuple<Tick, std::size_t, std::uint64_t>> v;
    for (std::size_t n = 0; n < txns_.size(); ++n)
        for (const Txn &t : txns_[n])
            v.emplace_back(t.start, n, t.line);
    std::sort(v.begin(), v.end());
    const std::size_t shown = std::min<std::size_t>(v.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
        const auto &[start, node, line] = v[i];
        os << "  node " << node << " line 0x" << std::hex
           << (line * kLineSize) << std::dec << " age " << (now - start)
           << "\n";
    }
    if (v.size() > shown)
        os << "  ... and " << (v.size() - shown) << " more\n";
}

} // namespace flashsim::verify
