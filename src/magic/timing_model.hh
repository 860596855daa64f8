/**
 * @file
 * Handler timing models.
 *
 * MAGIC asks a HandlerTimingModel how many cycles the PP is occupied by
 * each handler invocation. Two implementations:
 *
 *  - TableTimingModel: the per-operation occupancies of Table 3.4.
 *    Deterministic and independent of the PP toolchain; used in unit
 *    tests and as a cross-check.
 *
 *  - PpTimingModel: executes the compiled PP handler program (PPsim)
 *    against a shadow view of the live directory, with every load/store
 *    filtered through the MAGIC data cache model. Yields dynamic cycle
 *    counts, MDC miss traffic, and the Table 5.2 instruction statistics.
 */

#ifndef FLASHSIM_MAGIC_TIMING_MODEL_HH_
#define FLASHSIM_MAGIC_TIMING_MODEL_HH_

#include <array>
#include <memory>
#include <vector>

#include "magic/magic_cache.hh"
#include "sim/flat_table.hh"
#include "magic/params.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "protocol/pp_programs.hh"

namespace flashsim::magic
{

/** Per-invocation information the PP model reports back to MAGIC. */
struct HandlerTiming
{
    Cycles occupancy = 0;       ///< PP busy cycles (incl. MDC stalls)
    std::uint32_t mdcMisses = 0;///< misses -> main-memory fills
    std::uint32_t mdcWritebacks = 0; ///< dirty victims -> memory writes
    bool micColdMiss = false;   ///< first invocation of this handler
};

class HandlerTimingModel
{
  public:
    virtual ~HandlerTimingModel() = default;

    /**
     * Called with pre-handler state, before the authoritative C++
     * handler mutates the directory.
     */
    virtual void preHandler(const protocol::Message &msg, NodeId self,
                            NodeId home, bool cache_dirty) = 0;

    /** Called after the authoritative handler; returns the timing. */
    virtual HandlerTiming occupancy(const protocol::Message &msg,
                                    const protocol::HandlerResult &res) = 0;
};

/** Table 3.4 occupancies. */
class TableTimingModel : public HandlerTimingModel
{
  public:
    void preHandler(const protocol::Message &, NodeId, NodeId,
                    bool) override
    {}
    HandlerTiming occupancy(const protocol::Message &msg,
                            const protocol::HandlerResult &res) override;

    /** The Table 3.4 cost of a handler outcome (exposed for benches). */
    static Cycles cost(protocol::HandlerId id, int param);
};

/**
 * The PP's view of protocol memory while a handler is timed: loads read
 * through to the live directory, stores are buffered for the current
 * invocation (the authoritative C++ handler makes the real update), and
 * every access probes the MDC model, charging the miss penalty. Final
 * with inline members, so the executor instantiated on it (runOnShadow)
 * folds each access into its kernel; it is still a PpMemory, so the
 * oracle-checked path can run over it through PpSim::run.
 */
class ShadowMemory final : public ppisa::PpMemory
{
  public:
    ShadowMemory(const protocol::DirectoryStore &dir, MagicCache &mdc,
                 Cycles miss_penalty)
        : dir_(dir), mdc_(mdc), missPenalty_(miss_penalty)
    {}

    [[gnu::always_inline]] std::uint64_t
    load(Addr addr, Cycles &extra) override
    {
        probe(addr, false, extra);
        const std::uint64_t *w = writes_.find(addr);
        return w != nullptr ? *w : dir_.loadWord(addr);
    }

    [[gnu::always_inline]] void
    store(Addr addr, std::uint64_t value, Cycles &extra) override
    {
        probe(addr, true, extra);
        writes_.put(addr, value);
    }

    /** Start a new invocation: drop buffered writes, zero counters. */
    void
    reset()
    {
        writes_.reset();
        misses = 0;
        writebacks = 0;
    }

    std::uint32_t misses = 0;     ///< MDC misses this invocation
    std::uint32_t writebacks = 0; ///< dirty MDC victims this invocation

  private:
    [[gnu::always_inline]] void
    probe(Addr addr, bool is_write, Cycles &extra)
    {
        const MdcAccess a = mdc_.access(addr, is_write);
        extra = a.hit ? 0 : missPenalty_;
        if (!a.hit)
            ++misses;
        if (a.victimWriteback)
            ++writebacks;
    }

    const protocol::DirectoryStore &dir_;
    MagicCache &mdc_;
    Cycles missPenalty_;
    /** Buffered shadow writes for the current invocation; bulk-
     *  cleared in O(1) by reset() (generation-stamped flat table). */
    ScratchWordMap writes_;
};

/**
 * The threaded PP executor bound statically to ShadowMemory, with the
 * handler's Sends discarded: PpTimingModel's per-message path. Same
 * cycles, statistics and memory traffic as PpSim::run over the same
 * memory.
 */
Cycles runOnShadow(const ppisa::DecodedProgram &d, ppisa::RegFile &regs,
                   ShadowMemory &mem, ppisa::RunStats &stats);

/**
 * PPsim-driven timing. With the PP conformance oracle off (the default
 * release configuration) each handler runs through runOnShadow; with it
 * on (FS_PP_ORACLE=1) through PpSim::run, which cross-checks every
 * invocation against PpSim::runReference.
 */
class PpTimingModel : public HandlerTimingModel
{
  public:
    PpTimingModel(const protocol::HandlerPrograms &programs,
                  const protocol::DirectoryStore &dir,
                  const MagicParams &params);

    void preHandler(const protocol::Message &msg, NodeId self, NodeId home,
                    bool cache_dirty) override;
    HandlerTiming occupancy(const protocol::Message &msg,
                            const protocol::HandlerResult &res) override;

    /** Accumulated dynamic instruction statistics (Table 5.2). */
    const ppisa::RunStats &runStats() const { return stats_; }

    /** The MDC model (Section 5.2 statistics). */
    const MagicCache &mdc() const { return mdc_; }
    MagicCache &mdc() { return mdc_; }

  private:
    /**
     * One slot of the pre-resolved dispatch table: the handler program
     * for a (message type, at-home) combination, with its instruction
     * decode and MIC warm-up state resolved once at construction
     * instead of per invocation (forMessage switch + hash-set probe).
     * warmSlot indexes warm_ and is shared by every table entry that
     * aliases the same program (e.g. niFetchOp serves both PiFetchOp
     * at home and NetFetchOp), so a handler warms the MIC once no
     * matter which path first dispatches it — the same semantics the
     * old per-pointer set had.
     */
    struct DispatchEntry
    {
        const ppisa::Program *prog = nullptr;
        /** prog->decoded(), pinned at construction so the per-message
         *  path uses PpSim's pre-resolved run() overload (no decode
         *  fingerprint check per invocation). */
        const ppisa::DecodedProgram *decoded = nullptr;
        std::int8_t warmSlot = -1;
    };

    const protocol::HandlerPrograms &programs_;
    MagicParams params_;
    MagicCache mdc_;
    ShadowMemory shadow_;
    ppisa::PpSim sim_;
    /** Handlers run through runOnShadow, not PpSim::run (see class). */
    bool direct_;
    ppisa::RunStats stats_;
    /** PpSim::run's Send buffer on the checked path (its contents are
     *  not read; reused, so no allocation per handler). */
    std::vector<ppisa::SentMessage> sent_;
    HandlerTiming last_;
    std::array<std::array<DispatchEntry, 2>, protocol::kNumMsgTypes>
        dispatch_{};
    /** Per-unique-program "has run at least once" (MIC cold-miss). */
    std::array<bool, protocol::kNumMsgTypes * 2> warm_{};
};

} // namespace flashsim::magic

#endif // FLASHSIM_MAGIC_TIMING_MODEL_HH_
