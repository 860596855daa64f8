/**
 * @file
 * Configuration of the verification layer (src/verify): the coherence
 * oracle, the deadlock/livelock watchdog, and the deterministic fault
 * injector. Everything here is off by default, so a machine built
 * without touching these knobs behaves (and times) exactly as before.
 *
 * Scalars only: this header is embedded in magic::MagicParams and must
 * not pull protocol or machine types.
 */

#ifndef FLASHSIM_VERIFY_PARAMS_HH_
#define FLASHSIM_VERIFY_PARAMS_HH_

#include "sim/types.hh"

namespace flashsim::verify
{

/**
 * Seeded, deterministic protocol perturbations. Every decision comes
 * from one xorshift64* stream drawn in event order, so a (seed, config)
 * pair replays bit-identically. All perturbations preserve the
 * point-to-point FIFO ordering the NACK/retry protocol depends on:
 * delay jitter and inbound stalls are clamped so no message overtakes
 * an earlier one on the same (src, dest) pair or MAGIC queue.
 */
struct FaultParams
{
    bool enabled = false;
    std::uint64_t seed = 1;

    /** Max extra mesh transit cycles added per message (0 = off). */
    Cycles meshJitter = 0;
    /** Probability a home-node GET/GETX is NACKed outright instead of
     *  serviced (forces the retry paths; 0 = off). */
    double extraNackProb = 0.0;
    /** Probability a replacement hint is dropped on arrival (leaves a
     *  stale sharer pointer for later invalidation to clean up). */
    double dropHintProb = 0.0;
    /** Probability a replacement hint is duplicated on arrival. */
    double dupHintProb = 0.0;
    /** Max extra cycles a message stalls entering a MAGIC inbound
     *  queue, modelling queue-full backpressure (0 = off). */
    Cycles inboundStall = 0;

    // -- Lossy-mesh wire plane (recoverable-fault transport) ----------------
    //
    // Any nonzero wire probability enables the reliable transport layer
    // on every mesh lane: wire copies of protocol messages are genuinely
    // dropped / duplicated / reordered, and sequencing + cumulative acks
    // + retransmit timers recover them. Fates come from per-(src,dst)-
    // lane streams drawn in lane transmission order.

    /** Probability a wire copy is dropped in flight (0 = off). */
    double wireDropProb = 0.0;
    /** Probability a wire copy is duplicated in flight. */
    double wireDupProb = 0.0;
    /** Probability a wire copy is held back past its successors
     *  (genuine reordering within the lane's dedup window). */
    double wireReorderProb = 0.0;
    /** Max extra cycles a reordered wire copy is delayed. */
    Cycles wireReorderDelay = 96;

    /** Probability an inbound network request (NetGet/NetGetx) dies at
     *  the home node's NI before touching any protocol state. Unlike
     *  the wire knobs this kills the transaction outright; recovery
     *  relies on the requester's timeout/retry (txnRetryTimeout). */
    double txnDropProb = 0.0;

    /** True when the wire-plane transport should be built. */
    bool
    wireLossy() const
    {
        return wireDropProb > 0.0 || wireDupProb > 0.0 ||
               wireReorderProb > 0.0;
    }
};

/** The verification layer proper. */
struct VerifyParams
{
    /** Maintain the golden shadow state and cross-check the directory
     *  and processor caches at every handler completion. */
    bool oracle = false;
    /** Track per-transaction ages and global protocol progress. */
    bool watchdog = false;

    /** fatal() on the first oracle violation (otherwise record and
     *  continue; the run's violation log is inspected afterwards). */
    bool haltOnViolation = false;
    /** fatal() on a watchdog trip. A trip means the simulation is
     *  hanging, so dying loudly (with the post-mortem dump) is usually
     *  better than letting the run wedge; record-only is for tests. */
    bool haltOnTrip = true;

    /** Watchdog sampling interval. */
    Cycles watchdogInterval = 20000;
    /** A single transaction older than this trips the watchdog. */
    Cycles maxTransactionAge = 400000;
    /** Trip when transactions are outstanding and events keep firing
     *  but nothing has retired for this many cycles (NACK livelock). */
    Cycles noProgressWindow = 200000;

    /** Entries kept in each node's message/handler trace ring. */
    std::uint32_t traceDepth = 64;

    FaultParams fault;

    /** True when any component needs a Sentinel constructed. */
    bool
    any() const
    {
        return oracle || watchdog || fault.enabled;
    }
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_PARAMS_HH_
