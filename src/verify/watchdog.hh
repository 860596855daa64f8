/**
 * @file
 * Deadlock / NACK-livelock watchdog.
 *
 * Tracks every outstanding processor transaction (MSHR allocation to
 * completion) and samples the machine at a fixed interval. Two trip
 * conditions:
 *
 *  - a single transaction older than maxTransactionAge (a wedged or
 *    starved request — deadlock, or a pathological NACK storm that
 *    never lets one requester win);
 *
 *  - no transaction has retired for noProgressWindow cycles while some
 *    are outstanding and events keep firing (global NACK livelock: the
 *    machine is busy going nowhere).
 *
 * The watchdog arms itself on the first outstanding transaction and
 * stops rescheduling once none remain, so a quiescing run's event queue
 * still drains and Machine::drain() terminates. Its sampling events sit
 * on ticks of their own and never reorder protocol events, so enabling
 * it does not perturb simulated timing.
 */

#ifndef FLASHSIM_VERIFY_WATCHDOG_HH_
#define FLASHSIM_VERIFY_WATCHDOG_HH_

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "verify/params.hh"

namespace flashsim::verify
{

class Watchdog
{
  public:
    Watchdog(EventQueue &eq, const VerifyParams &params);

    /** A processor transaction for @p addr's line left node @p node. */
    void txnStart(NodeId node, Addr addr);
    /** The transaction completed (data returned to the processor). */
    void txnRetire(NodeId node, Addr addr);
    /** The transaction timed out and was legitimately re-issued: its
     *  age clock restarts so recovery is not mistaken for a wedge. A
     *  retry also counts as progress for the livelock window — a lone
     *  long-backoff retry is forward motion, not a stuck machine. True
     *  livelock stays bounded: the retry budget converts it into a
     *  degraded completion, which retires the transaction. */
    void txnRetry(NodeId node, Addr addr);

    Counter trips() const { return trips_; }
    Counter retired() const { return retired_; }
    std::size_t outstanding() const { return outstanding_; }

    /** Called once per trip with a human-readable reason; the policy
     *  (post-mortem dump, fatal()) lives in the Sentinel. */
    std::function<void(const std::string &reason)> onTrip;

    /** Outstanding-transaction table, for the post-mortem dump. */
    void writeStatus(std::ostream &os) const;

  private:
    /** One outstanding transaction of a node. */
    struct Txn
    {
        std::uint64_t line; ///< line number
        Tick start;
    };

    /** @p node's transaction for @p addr's line, or null. */
    Txn *findTxn(NodeId node, Addr addr);

    void arm();
    void check(std::uint64_t gen);
    void trip(std::string reason);

    EventQueue &eq_;
    Cycles interval_;
    Cycles maxAge_;
    Cycles noProgressWindow_;

    /** Outstanding transactions per node. A node has at most one per
     *  MSHR, so a lookup scans a few entries, and the vectors keep
     *  their capacity: steady state never allocates. */
    std::vector<std::vector<Txn>> txns_;
    std::size_t outstanding_ = 0;
    Tick lastProgress_ = 0;
    bool armed_ = false;
    /** Bumped on disarm so already-scheduled checks become no-ops. */
    std::uint64_t gen_ = 0;
    Counter trips_ = 0;
    Counter retired_ = 0;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_WATCHDOG_HH_
