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
 *
 * The cache-side checks read a holder index instead of probing every
 * cache: each cpu::Cache reports its state changes (Cache::setState)
 * through the sentinel, and the oracle keeps per line a bitmask of the
 * nodes holding it Shared and one of those holding it Exclusive. The
 * quiesced finalCheck probes every cache again for every tracked line
 * and reports any disagreement with the index.
 *
 * Golden records are fixed-size and live in pages of consecutive lines
 * found through a flat open-addressing table, so neither a handler
 * check nor a cache-state report allocates once a line's page exists.
 */

#ifndef FLASHSIM_VERIFY_ORACLE_HH_
#define FLASHSIM_VERIFY_ORACLE_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "sim/flat_table.hh"
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
        /** Each node's directory store, indexed by node. */
        std::vector<const protocol::DirectoryStore *> directories;
        /** 0 = Invalid, 1 = Shared, 2 = Exclusive. Probed only by
         *  finalCheck; handler-time checks read the holder index. */
        std::function<int(NodeId node, Addr line)> cacheState;
    };

    /** Bitmasks (bit n = node n) of the caches holding a line. */
    struct Holders
    {
        std::uint64_t shared = 0;
        std::uint64_t exclusive = 0;

        bool operator==(const Holders &) const = default;
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

    /** Node @p node's cache moved @p line to @p state (0 Invalid,
     *  1 Shared, 2 Exclusive): updates the holder index. */
    void noteCacheState(NodeId node, Addr line, int state);

    /** The holder index's view of @p line (diagnostics and tests). */
    Holders holders(Addr line) const;

    /** Whole-machine consistency check on a quiesced machine. */
    void finalCheck(Tick now);

    Counter violations() const { return violationCount_; }
    /** First violations, capped (the count keeps rising past the cap). */
    const std::vector<Violation> &violationLog() const { return log_; }

    /** Called on every violation (dump / halt policy lives outside). */
    std::function<void(const Violation &)> onViolation;

    /** Lines with golden state (diagnostics). */
    std::size_t trackedLines() const { return tracked_; }

  private:
    /** One line's record: golden state plus the holder index. */
    struct GoldenLine
    {
        // Mirror of the home directory words. The sharer list is a
        // multiset (dropped hints make duplicate directory entries
        // legitimate under injection): a bit per node listed at least
        // once, with any further entries counted in mirrorExtra_.
        std::uint64_t mirrorSharers = 0;

        // Ground truth.
        std::uint64_t truthSharers = 0; ///< bitmask: entitled Shared
        std::uint64_t invalPending = 0; ///< inval sent, not yet arrived
        /** Sharers cleared by an exclusive grant whose eviction hint
         *  may still be in flight: a hint crossing the invalidation on
         *  the mesh is a benign race (hints are imprecise by design),
         *  forgiven once per invalidation event. */
        std::uint64_t hintDebt = 0;
        /** Read replies (NetPut) granted and still crossing the mesh.
         *  Replies wait for memory data and invalidations do not, so a
         *  later writer's invalidation can reach the requester first
         *  and retire its invalPending bit; the reply is still a
         *  legitimate delivery (the cache drops it on fill). */
        std::uint64_t replyPending = 0;
        // Epochs compare only for equality, so 32 bits suffice (a miss
        // would need exactly 2^32 exclusive grants of one line between
        // two checks) and keep the record at 80 bytes.
        std::uint32_t writeEpoch = 0;
        std::uint32_t memEpoch = 0;

        // Holder index, kept by the caches' state reports.
        Holders held;

        NodeId mirrorOwner = kInvalidNode;
        NodeId truthOwner = kInvalidNode;
        bool mirrorDirty = false;
        bool truthDirty = false;
        bool swbInFlight = false; ///< 3-hop sharing writeback en route
        /** Some node was listed twice; mirrorExtra_ may hold counts. */
        bool mirrorDups = false;
        /** Golden state exists (a handler touched the line); a record
         *  with only holder bits is not a tracked line. */
        bool tracked = false;
    };
    // One record per touched line stays resident for the whole run.
    static_assert(sizeof(GoldenLine) <= 80, "keep golden records compact");

    /** Lines per record page (a power of two). */
    static constexpr unsigned kPageShift = 7;
    static constexpr std::uint64_t kPageLines = std::uint64_t{1}
                                                << kPageShift;

    /** @p line_base's record, created (untracked) if absent. */
    GoldenLine &record(Addr line_base);
    /** @p line_base's record, or null when its page does not exist. */
    GoldenLine *findRecord(Addr line_base) const;
    /** @p line_base's golden state, created if absent. */
    GoldenLine &line(Addr line_base);
    /** @p line_base's golden state, or null when none exists. */
    GoldenLine *find(Addr line_base);

    // The mirror's sharer multiset.
    unsigned mirrorCount(const GoldenLine &g, Addr line_base,
                         NodeId n) const;
    void addMirror(GoldenLine &g, Addr line_base, NodeId n);
    /** Remove one listing of @p n (which must be listed); true when it
     *  was the last. */
    bool dropMirror(GoldenLine &g, Addr line_base, NodeId n);
    void clearMirror(GoldenLine &g, Addr line_base);

    /** The golden-state transition for one handler. Returns the line's
     *  golden state to check, or null for traffic that bypasses the
     *  directory or a line with no golden state. */
    GoldenLine *applyTransition(NodeId node, bool at_home, Tick now,
                                const protocol::Message &msg,
                                const protocol::HandlerResult &res,
                                Addr lb);

    void fail(Tick now, NodeId node, Addr addr, const char *kind,
              std::string detail);

    /** Field-for-field directory-vs-mirror compare at the home node. */
    void checkDirectory(Tick now, NodeId home, Addr line_base,
                        const GoldenLine &g);
    /** Single-writer and sharers-consistent checks over the caches
     *  holding the line, in node order. */
    void checkCaches(Tick now, NodeId node, Addr line_base,
                     const GoldenLine &g, const Holders &h, bool quiesced);

    Wiring w_;
    bool allowHintAnomalies_;
    /** Page number (line number >> kPageShift) -> 1 + index in pages_. */
    FlatCounterMap pageSlot_;
    std::vector<std::unique_ptr<GoldenLine[]>> pages_;
    /** Mirror listings beyond the first, keyed by dupKey(line, node);
     *  only touched for lines with mirrorDups set. */
    FlatCounterMap mirrorExtra_;
    std::size_t tracked_ = 0;
    Counter violationCount_ = 0;
    std::vector<Violation> log_;
    static constexpr std::size_t kLogCap = 100;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_ORACLE_HH_
