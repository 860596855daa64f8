/**
 * @file
 * The coherence sentinel: composition root of the verification layer.
 *
 * One Sentinel per Machine owns the three cooperating pieces —
 * CoherenceOracle (golden shadow state, invariant checks), Watchdog
 * (transaction ages + global progress), FaultInjector (seeded
 * perturbations) — plus the per-node trace rings they all dump from.
 * The hardware models only ever talk to the Sentinel through narrow
 * hooks (observeHandler, txnStart/txnRetire, injector()); policy (dump
 * post-mortems, halt or record) lives entirely here.
 *
 * The Sentinel registers itself with the logging layer's thread-local
 * post-mortem registry, so any fatal()/panic() on the machine's thread
 * replays the trace rings and watchdog status before dying.
 */

#ifndef FLASHSIM_VERIFY_SENTINEL_HH_
#define FLASHSIM_VERIFY_SENTINEL_HH_

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "verify/fault.hh"
#include "verify/oracle.hh"
#include "verify/params.hh"
#include "verify/trace.hh"
#include "verify/watchdog.hh"

namespace flashsim::verify
{

class Sentinel
{
  public:
    Sentinel(EventQueue &eq, const VerifyParams &params, int num_nodes);
    ~Sentinel();

    Sentinel(const Sentinel &) = delete;
    Sentinel &operator=(const Sentinel &) = delete;

    /** Construct the oracle (if enabled) over the live machine. Called
     *  by machine::Machine once all nodes exist. */
    void wireOracle(CoherenceOracle::Wiring wiring);

    // -- Hooks from the hardware models -------------------------------------

    /** A protocol handler completed (all its cache operations applied).
     *  Records the trace entry and runs the oracle transition+checks. */
    void observeHandler(NodeId node, bool at_home, Tick now,
                        const protocol::Message &msg,
                        const protocol::HandlerResult &res);

    /** Node @p node's cache moved @p line to @p state (0 Invalid,
     *  1 Shared, 2 Exclusive): feeds the oracle's holder index. */
    void
    cacheStateChanged(NodeId node, Addr line, int state)
    {
        if (oracle_)
            oracle_->noteCacheState(node, line, state);
    }

    /** An injector action happened at @p node (trace only). */
    void recordInjected(NodeId node, Tick now, const protocol::Message &msg,
                        TraceEntry::Kind kind);

    /** A processor transaction left / completed at @p node. */
    void txnStart(NodeId node, Addr addr);
    void txnRetire(NodeId node, Addr addr);
    /** A timed-out transaction was legitimately re-issued at @p node:
     *  the watchdog restarts its age clock (retries are recovery, not
     *  wedges). */
    void txnRetry(NodeId node, Addr addr);

    FaultInjector &injector() { return injector_; }

    /**
     * Test-only hook: runs after a handler's directory transition and
     * before the oracle check, free to corrupt machine state (e.g. via
     * a captured DirectoryStore) so tests can prove the oracle catches
     * a broken handler. Null in normal operation.
     */
    std::function<void(NodeId node, const protocol::Message &msg,
                       protocol::HandlerResult &res)>
        testMutator;

    // -- Whole-run checks and reporting -------------------------------------

    /** Oracle whole-machine check on a quiesced machine. */
    void finalCheck();

    Counter violations() const
    {
        return oracle_ ? oracle_->violations() : 0;
    }
    Counter trips() const { return watchdog_ ? watchdog_->trips() : 0; }
    bool dumped() const { return dumped_; }

    const CoherenceOracle *oracle() const { return oracle_.get(); }
    const Watchdog *watchdog() const { return watchdog_.get(); }
    const FaultInjector &injectorStats() const { return injector_; }
    const VerifyParams &params() const { return params_; }

    /** One-line component summary for the CLI. */
    void writeSummary(std::ostream &os) const;

    /** Full post-mortem: watchdog status, oracle violations, injector
     *  counters, per-node trace rings. */
    void writePostMortem(std::ostream &os, const char *reason) const;

  private:
    void onViolation(const Violation &v);
    void onTrip(const std::string &reason);
    void dumpOnce(const char *reason);

    EventQueue &eq_;
    VerifyParams params_;
    int numNodes_;

    FaultInjector injector_;
    std::unique_ptr<Watchdog> watchdog_;
    std::unique_ptr<CoherenceOracle> oracle_;
    std::vector<TraceRing> rings_;

    bool dumped_ = false;
    int postMortemToken_ = -1;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_SENTINEL_HH_
