/**
 * @file
 * PPsim: the instruction-set emulator for the MAGIC protocol processor.
 *
 * The paper (Section 3.3) integrates an instruction-set emulator for the
 * PP with FlashLite so that protocol handler timing comes from executing
 * the real handler code. This emulator plays that role: it executes
 * scheduled dual-issue handler programs, reporting dynamic cycle counts
 * and the instruction-usage statistics of Table 5.2, and routes all
 * memory operations through a pluggable interface so the MAGIC data
 * cache model can charge its 29-cycle miss penalty.
 */

#ifndef FLASHSIM_PPISA_PPSIM_HH_
#define FLASHSIM_PPISA_PPSIM_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppisa/backend.hh"
#include "ppisa/instruction.hh"
#include "sim/flat_table.hh"
#include "sim/types.hh"

namespace flashsim::ppisa
{

class DecodedProgram;

/**
 * A fully scheduled PP handler program.
 *
 * Branch targets are pair indices. Each pair executes in one PP cycle
 * (plus any memory stall charged by the PpMemory implementation).
 */
class Program
{
  public:
    std::string name;

    /** The scheduled instruction pairs (read-only view). */
    const std::vector<InstrPair> &pairs() const { return pairs_; }

    /**
     * Mutable access to the instruction pairs. Every call bumps the
     * decode version, so any mutation through this accessor — including
     * an in-place element overwrite that keeps both the data pointer
     * and the size — is seen by the decode-cache fingerprint and forces
     * a re-decode on the next execution. Holding the returned reference
     * across a later decoded() call and mutating through it afterwards
     * is outside the contract.
     */
    std::vector<InstrPair> &
    mutablePairs()
    {
        ++version_;
        return pairs_;
    }

    /** Fingerprint component: bumped by every mutablePairs() call. */
    std::uint64_t decodeVersion() const { return version_; }

    /** Static code size in bytes (two 4-byte instruction words per pair),
     *  NOP slots included, matching Table 5.2's "with NOPs" metric. */
    std::size_t codeBytes() const { return pairs_.size() * 8; }

    std::string toString() const;

    /**
     * The pre-decoded image of this program (see decode.hh), built
     * lazily on first use and cached. Rebuilt automatically when the
     * program is reloaded: the cache fingerprints the pairs storage
     * (data pointer + size) plus the mutation version bumped by every
     * mutablePairs() call, so reassignment and in-place mutation both
     * invalidate it. Lazy build is not thread-safe: any program shared
     * across threads — the process-wide handler set read by
     * SweepRunner workers (sim/sweep.hh) — must be pre-decoded before
     * publication (protocol/pp_programs.cc does), after which
     * concurrent decoded() calls are pure reads.
     */
    const DecodedProgram &decoded() const;

    /** Drop the cached decode (kept for emphasis at call sites; the
     *  version fingerprint already catches mutablePairs() mutations). */
    void invalidateDecodeCache() const;

  private:
    std::vector<InstrPair> pairs_;
    std::uint64_t version_ = 0;
    mutable std::shared_ptr<const DecodedProgram> decoded_;
};

/**
 * Memory seen by the PP: protocol data structures in main memory,
 * accessed through the MAGIC data cache. Implementations return the
 * extra stall cycles (0 on an MDC hit, the miss penalty otherwise).
 */
class FlatPpMemory;

class PpMemory
{
  public:
    virtual ~PpMemory() = default;
    virtual std::uint64_t load(Addr addr, Cycles &extra_cycles) = 0;
    virtual void store(Addr addr, std::uint64_t value,
                       Cycles &extra_cycles) = 0;

    /**
     * Devirtualization tag for the threaded backend: true exactly for
     * FlatPpMemory, whose statically-typed executor instantiation
     * inlines every memory op instead of making virtual calls. A plain
     * flag (not a virtual query): the executor tests it on every
     * handler invocation, where an indirect call is measurable. Cycle
     * accounting is unaffected — FlatPpMemory never stalls.
     */
    bool isFlat() const { return isFlat_; }

  protected:
    PpMemory() = default;
    /** Only FlatPpMemory may pass true: runThreaded static_casts the
     *  tagged object to FlatPpMemory. */
    explicit PpMemory(bool is_flat) : isFlat_(is_flat) {}

  private:
    bool isFlat_ = false;
};

/** Trivial PpMemory backed by a flat hash table; every access hits
 *  (0 stall). Final + fully inline so the threaded executor's
 *  FlatPpMemory instantiation folds the whole access into the kernel. */
class FlatPpMemory final : public PpMemory
{
  public:
    FlatPpMemory() : PpMemory(true) {}

    std::uint64_t
    load(Addr addr, Cycles &extra_cycles) override
    {
        extra_cycles = 0;
        return peek(addr);
    }

    void
    store(Addr addr, std::uint64_t value, Cycles &extra_cycles) override
    {
        extra_cycles = 0;
        poke(addr, value);
    }

    /** Direct (non-timed) backdoor access for test setup. */
    std::uint64_t
    peek(Addr addr) const
    {
        const Counter *v = data_.find(addr);
        return v != nullptr ? *v : 0;
    }

    void poke(Addr addr, std::uint64_t value) { data_[addr] = value; }

  private:
    FlatCounterMap data_;
};

/** An outgoing message launched by a Send instruction. */
struct SentMessage
{
    int type;           ///< protocol message type (Send immediate)
    std::uint64_t dest; ///< destination (node id or interface code)
    std::uint64_t arg;  ///< packed argument word (address + aux fields)

    bool operator==(const SentMessage &) const = default;
};

/** Dynamic statistics from one or more handler executions. */
struct RunStats
{
    Cycles cycles = 0;        ///< total PP cycles including memory stalls
    std::uint64_t pairs = 0;  ///< dual-issue pairs executed
    std::uint64_t instrs = 0; ///< non-NOP instructions executed
    std::uint64_t specials = 0;   ///< special (FLASH-extension) instructions
    std::uint64_t aluBranch = 0;  ///< ALU + branch instructions
    std::uint64_t memStall = 0;   ///< cycles of MDC stall included in cycles
    std::uint64_t invocations = 0; ///< handler invocations accumulated

    bool operator==(const RunStats &) const = default;

    void accumulate(const RunStats &other);

    /** Table 5.2: non-NOP instructions per pair (2.0 is perfect). */
    double dualIssueEfficiency() const;
    /** Table 5.2: fraction of ALU/branch instructions that are special. */
    double specialFraction() const;
    /** Table 5.2: mean instruction pairs per handler invocation. */
    double pairsPerInvocation() const;
};

/** Register file contents passed into / out of a handler run. */
using RegFile = std::array<std::uint64_t, kNumRegs>;

/**
 * The PP emulator. Stateless between runs; all architectural state lives
 * in the RegFile and PpMemory passed to run().
 */
class PpSim
{
  public:
    /** Upper bound on cycles per handler; exceeded => runaway handler. */
    static constexpr Cycles kMaxCycles = 1 << 20;

    /**
     * @param backend which engine run() uses. Interpreter is the
     * default for direct constructions (tests, tools); the machine
     * plumbs MagicParams::ppBackend through here. With the Threaded
     * backend, run() cross-checks every invocation against
     * runReference() when the conformance oracle is enabled — see
     * oracleEnabled().
     */
    explicit PpSim(PpBackend backend = PpBackend::Interpreter)
        : backend_(backend),
          checkThreaded_(backend == PpBackend::Threaded && oracleEnabled())
    {
    }

    PpBackend backend() const { return backend_; }

    /**
     * True when threaded-backend runs are cross-checked step-for-step
     * against the reference interpreter. Controlled by the FS_PP_ORACLE
     * environment variable ("1" forces on, anything else forces off);
     * when unset, on in debug builds (!NDEBUG) and off in release
     * builds. Read once per process.
     */
    static bool oracleEnabled();

    /**
     * Execute @p prog from pair 0 until Halt.
     *
     * Enforces the PP's static-scheduling contract: an intra-pair
     * dependency or a use of a load result in the pair immediately after
     * the load is a panic (the real PP has no interlocks, so such code is
     * simply broken).
     *
     * Runs over the program's cached decode (Program::decoded()); the
     * architectural behaviour — register/memory/message effects, cycle
     * charges, statistics, and every contract panic — is identical to
     * runReference().
     *
     * @param regs     register file (r0 forced to zero); updated in place.
     * @param mem      protocol-data memory (MDC timing hook).
     * @param sent     messages launched by Send, in order.
     * @param stats    dynamic statistics, accumulated (not reset).
     * @return cycles consumed by this invocation.
     */
    Cycles run(const Program &prog, RegFile &regs, PpMemory &mem,
               std::vector<SentMessage> &sent, RunStats &stats) const;

    /**
     * Pre-resolved run() for dispatch tables that pin their programs'
     * decodes at load time (PpTimingModel resolves every handler's
     * decode once at construction): @p decoded must be prog.decoded()
     * and @p prog must not have been mutated since, which skips the
     * per-invocation decode-cache fingerprint check on the dispatch
     * hot path. Behaviour is otherwise identical to run() above.
     */
    Cycles run(const Program &prog, const DecodedProgram &decoded,
               RegFile &regs, PpMemory &mem,
               std::vector<SentMessage> &sent, RunStats &stats) const;

    /**
     * The original per-issue-slot interpreter, which re-decodes each
     * instruction (bitfields, source/dest sets, contract checks) every
     * time it executes. Kept as the conformance oracle for the decode
     * cache: tests run every opcode through both paths and require
     * identical results.
     */
    Cycles runReference(const Program &prog, RegFile &regs, PpMemory &mem,
                        std::vector<SentMessage> &sent,
                        RunStats &stats) const;

  private:
    Cycles runThreadedChecked(const Program &prog, RegFile &regs,
                              PpMemory &mem,
                              std::vector<SentMessage> &sent,
                              RunStats &stats) const;

    PpBackend backend_ = PpBackend::Interpreter;
    /** Threaded backend + oracle on, latched at construction so run()
     *  skips the static-local guard of oracleEnabled() per call. */
    bool checkThreaded_ = false;
};

} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_PPSIM_HH_
