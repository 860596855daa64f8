/**
 * @file
 * Run summaries: the quantities the paper's tables and figures report,
 * extracted from a finished Machine.
 */

#ifndef FLASHSIM_MACHINE_REPORT_HH_
#define FLASHSIM_MACHINE_REPORT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "sim/stats.hh"

namespace flashsim::machine
{

/** Read-miss distribution as fractions summing to ~1 (Table 4.1). */
struct ReadMissDistribution
{
    double localClean = 0;
    double localDirtyRemote = 0;
    double remoteClean = 0;
    double remoteDirtyHome = 0;
    double remoteDirtyRemote = 0;
};

/** No-contention read-miss latencies per class (Table 3.3). */
struct MissLatencies
{
    double localClean = 0;
    double localDirtyRemote = 0;
    double remoteClean = 0;
    double remoteDirtyHome = 0;
    double remoteDirtyRemote = 0;

    /** Contentionless read miss time for a distribution (Section 4.1). */
    double crmt(const ReadMissDistribution &d) const;
};

/** Everything the paper reports about one run. */
struct Summary
{
    Tick execTime = 0;

    // Execution-time breakdown, as fractions of aggregate processor time
    // (Figure 4.1's Busy / Cont / Read / Write / Sync categories).
    double busy = 0;
    double cont = 0;
    double read = 0;
    double write = 0;
    double sync = 0;

    double missRate = 0; ///< processor cache misses / references
    ReadMissDistribution dist;

    double avgMemOcc = 0;
    double maxMemOcc = 0;
    double avgPpOcc = 0;
    double maxPpOcc = 0;

    std::uint64_t cacheReads = 0;
    std::uint64_t cacheWrites = 0;
    std::uint64_t backgroundRefs = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t handlerInvocations = 0;
    double handlersPerMiss = 0;

    std::uint64_t specIssued = 0;
    double specUselessFrac = 0;

    double mdcMissRate = 0;
    double mdcReadMissRate = 0;
    std::uint64_t mdcProtocolMemOps = 0; ///< MDC fills + writebacks

    std::uint64_t nacksSent = 0;

    // -- Recoverable-fault transport (lossy-mesh mode) ----------------------
    // Wire-plane injector actions and the ARQ machinery that absorbed
    // them; all zero when the transport is disabled.
    std::uint64_t wireDrops = 0;
    std::uint64_t wireDups = 0;
    std::uint64_t wireReorders = 0;
    std::uint64_t wireCopies = 0;
    std::uint64_t wireRetransmits = 0;
    std::uint64_t wireAssured = 0;
    std::uint64_t wireAcks = 0;
    std::uint64_t wireDupsFiltered = 0;
    std::uint64_t wireReordersAccepted = 0;

    // Transaction-level recovery (request drops at the home NI).
    std::uint64_t reqDropsInjected = 0;
    std::uint64_t timeoutRetries = 0;
    std::uint64_t lateFills = 0;
    std::uint64_t degradedTxns = 0;
    std::uint64_t degradedResumes = 0;

    /** One transaction that exhausted its retry budget. */
    struct DegradedTxn
    {
        NodeId node = 0;
        Addr line = 0;
        std::uint32_t retries = 0;
    };
    std::vector<DegradedTxn> degraded;

    /** Some transaction gave up inside its retry budget: results are
     *  complete but weaker than a clean run — report, don't trust. */
    bool runDegraded() const { return degradedTxns != 0; }
};

/** Collect a Summary from a machine that has finished run(). */
Summary summarize(const Machine &m);

/** Publish the transport/recovery counters of @p s into @p stats under
 *  dense "transport.*" handles (dashboards, bench fixtures). */
void exportTransportStats(const Summary &s, StatSet &stats);

/** Figure 4.1-style row: normalized total plus category percentages. */
std::string breakdownRow(const std::string &label, const Summary &s,
                         double norm_exec_time);

/** Header matching breakdownRow. */
std::string breakdownHeader();

} // namespace flashsim::machine

#endif // FLASHSIM_MACHINE_REPORT_HH_
