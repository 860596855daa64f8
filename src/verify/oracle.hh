/**
 * @file
 * The coherence oracle: a zero-time golden shadow model of every cache
 * line's protocol state, cross-checked against the real directory and
 * processor caches at every handler completion.
 *
 * The oracle re-derives each protocol transition from first principles
 * (message type + golden state), so a handler that diverges from the
 * dynamic-pointer-allocation protocol — a forgotten addSharer, a leaked
 * link, a lost dirty bit — shows up as a mismatch at the very handler
 * that introduced it, with node/tick/address attached, instead of as a
 * plausible-but-wrong latency number thousands of cycles later.
 *
 * Golden state per line keeps two views:
 *
 *  - the *mirror*: what the home directory words must contain right
 *    now. Updated exactly at the handlers that update the directory
 *    (including the deferred SWB/OwnXfer updates of the 3-hop path),
 *    and compared field-for-field after every home handler.
 *
 *  - the *truth*: which node really owns the line, which nodes are
 *    entitled to a shared copy, and data epochs (writeEpoch bumps at
 *    each exclusive grant, memEpoch records what main memory holds).
 *    Backs the single-writer, sharers-consistent and no-lost-dirty-data
 *    invariants: at most one cache Exclusive and only the truth owner;
 *    any Shared copy held by an entitled or inval-pending node; memory
 *    never serves a line whose latest epoch lives in a cache.
 */

#ifndef FLASHSIM_VERIFY_ORACLE_HH_
#define FLASHSIM_VERIFY_ORACLE_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::verify
{

/** One invariant violation, with full blame context. */
struct Violation
{
    Tick tick = 0;
    NodeId node = 0;
    Addr addr = 0;
    std::string kind;   ///< stable identifier, e.g. "dir-mismatch"
    std::string detail; ///< human-readable specifics
};

class CoherenceOracle
{
  public:
    /** Accessors into the live machine, installed by machine::Machine. */
    struct Wiring
    {
        int numNodes = 0;
        std::function<NodeId(Addr)> homeOf;
        std::function<protocol::DirHeader(NodeId home, Addr line)> header;
        std::function<std::vector<NodeId>(NodeId home, Addr line)> sharers;
        /** 0 = Invalid, 1 = Shared, 2 = Exclusive. */
        std::function<int(NodeId node, Addr line)> cacheState;
    };

    /**
     * @param allow_hint_anomalies duplicate sharer entries and hint
     * underflows are expected (not violations) when the fault injector
     * drops or duplicates replacement hints.
     */
    CoherenceOracle(Wiring wiring, bool allow_hint_anomalies);

    /** Observe a completed handler (after its cache operations ran). */
    void onHandler(NodeId node, bool at_home, Tick now,
                   const protocol::Message &msg,
                   const protocol::HandlerResult &res);

    /** Whole-machine consistency check on a quiesced machine. */
    void finalCheck(Tick now);

    Counter violations() const { return violationCount_; }
    /** First violations, capped (the count keeps rising past the cap). */
    const std::vector<Violation> &violationLog() const { return log_; }

    /** Called on every violation (dump / halt policy lives outside). */
    std::function<void(const Violation &)> onViolation;

    /** Lines with golden state (diagnostics). */
    std::size_t trackedLines() const { return lines_.size(); }

  private:
    struct GoldenLine
    {
        // Mirror of the home directory words.
        bool mirrorDirty = false;
        NodeId mirrorOwner = kInvalidNode;
        /** Sharer-list multiset: count per node (dropped hints make
         *  duplicate directory entries legitimate under injection). */
        std::vector<std::uint16_t> mirrorCount;

        // Ground truth.
        bool truthDirty = false;
        NodeId truthOwner = kInvalidNode;
        std::uint64_t truthSharers = 0; ///< bitmask: entitled Shared
        std::uint64_t invalPending = 0; ///< inval sent, not yet arrived
        /** Sharers cleared by an exclusive grant whose eviction hint
         *  may still be in flight: a hint crossing the invalidation on
         *  the mesh is a benign race (hints are imprecise by design),
         *  forgiven once per invalidation event. */
        std::uint64_t hintDebt = 0;
        std::uint64_t writeEpoch = 0;
        std::uint64_t memEpoch = 0;
        bool swbInFlight = false; ///< 3-hop sharing writeback en route
    };

    GoldenLine &line(Addr line_base);
    GoldenLine *find(Addr line_base);

    /** The golden-state transition for one handler. Returns false
     *  for traffic that bypasses the directory. */
    bool applyTransition(NodeId node, bool at_home, Tick now,
                         const protocol::Message &msg,
                         const protocol::HandlerResult &res, Addr lb);

    void fail(Tick now, NodeId node, Addr addr, const char *kind,
              std::string detail);

    /** Field-for-field directory-vs-mirror compare at the home node. */
    void checkDirectory(Tick now, NodeId home, Addr line_base,
                        const GoldenLine &g);
    /** Single-writer and sharers-consistent checks across caches. */
    void checkCaches(Tick now, NodeId node, Addr line_base,
                     const GoldenLine &g, bool quiesced);

    Wiring w_;
    bool allowHintAnomalies_;
    std::unordered_map<Addr, GoldenLine> lines_;
    Counter violationCount_ = 0;
    std::vector<Violation> log_;
    static constexpr std::size_t kLogCap = 100;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_ORACLE_HH_
