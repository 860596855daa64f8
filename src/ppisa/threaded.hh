/**
 * @file
 * The threaded-code PP executor: the one engine behind PpSim::run.
 *
 * Each DecodedPair is lowered once more, into a ThreadedOp tagged with
 * a *kernel id*: the executor is a single function whose kernels are
 * computed-goto labels (token threading), so every pair jumps straight
 * to a block specialized for its shape — per-opcode kernels for
 * single-issue pairs, fused kernels for the hottest dual-issue
 * combinations reported by the static micro-op profile pass
 * (ppc/profile.hh), and a generic two-slot kernel for everything else.
 *
 * Work a plain per-pair loop would re-do is resolved at build time:
 *  - static contract verdicts become a dedicated panic kernel, so clean
 *    pairs carry no violation branches at all;
 *  - the load-delay check runs only for pairs some static predecessor
 *    could actually poison (none, in correctly scheduled code);
 *  - the pc bounds check disappears — branch targets are validated at
 *    build time and fall-through off the end lands on a sentinel op
 *    that raises the reference's exact out-of-range panic.
 *
 * The executor itself is a template over the memory and Send sink
 * types in threaded_exec.hh; runThreaded below is its PpMemory
 * instantiation.
 *
 * Architectural behaviour — register/memory/message effects, cycle
 * charges, statistics, and every contract panic text — is bit-identical
 * to PpSim::runReference. This is enforced by the conformance oracle in
 * ppsim.cc (FS_PP_ORACLE), the differential fuzz suite in
 * tests/test_pp_backends.cc, and the coherence sentinel running full
 * workloads on this executor in CI.
 */

#ifndef FLASHSIM_PPISA_THREADED_HH_
#define FLASHSIM_PPISA_THREADED_HH_

#include <cstdint>
#include <vector>

#include "ppisa/decode.hh"

namespace flashsim::ppisa
{

/**
 * Kernel ids for the token-threaded executor. Every ThreadedOp names
 * one; the executor's dispatch table maps ids to computed-goto labels.
 */
enum class ThreadedKernel : std::uint8_t
{
    Generic,    ///< any pair: reference-equivalent two-slot execution
                ///< with the full bounds + load-delay checked epilogue
    Violation,  ///< decode-time contract violation; panics when reached
    OutOfRange, ///< sentinel one past the last pair (fall-off panic)
    Halt,       ///< {Halt, Nop}: fold stats and return
    Nop,        ///< {Nop, Nop} padding pair

    // --- single-issue (slot b == Nop, rd != 0 where one is written) ---
    Add, Sub, And, Or, Xor, Sllv, Srlv, Slt, Sltu,
    Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti,
    Ld, Sd,
    Beq, Bne, J,
    Ffs, Bbs, Bbc, Ext, Ins, Orfi, Andfi,
    Send,

    // --- fused dual-issue fast paths. The set mirrors the hottest
    //     dual-issue combinations in the static micro-op profile over
    //     the protocol handler set (ppc/profile.hh): [ld|addi] 8,
    //     [add|ins] 5, [ld|send] 5, [sd|send] 5, [slli|ins] 4,
    //     [ld|ext] 4, [ext|ext] 4, [send|addi] 4, [addi|send] 3, ...
    //     — the named kernels take the top entries, the class-based
    //     ones (pure-ALU × {ALU, Ld, Send, branch}) the tail. ---
    FuseAddiAddi, ///< [Addi | Addi]
    FuseLdAddi,   ///< [Ld | Addi]: the profile's hottest dual pair
    FuseLdAlu,    ///< Ld in a, any pure-ALU op in b
    FuseLdSend,   ///< [Ld | Send]
    FuseSdSend,   ///< [Sd | Send]
    FuseAluAlu,   ///< both slots pure ALU
    FuseAluLd,    ///< pure ALU in a, Ld in b
    FuseAluSend,  ///< pure ALU in a, Send in b
    FuseSendAlu,  ///< Send in a, pure ALU in b
    FuseAluBr,    ///< pure ALU in a, branch in b

    Count_, ///< number of kernels (dispatch table size)
};

/** One lowered pair: the decoded operands plus the kernel token. */
struct ThreadedOp
{
    MicroOp a, b;
    std::uint32_t srcMask = 0;
    std::uint32_t loadMask = 0;
    std::uint8_t instrsInc = 0;
    std::uint8_t specialsInc = 0;
    std::uint8_t aluBranchInc = 0;
    /**
     * The pair's statistics deltas packed into two words so the
     * executor folds all four counters with two adds per pair:
     *   statPackA = instrsInc    | specialsInc << 32
     *   statPackB = aluBranchInc | 1 << 32   (the pair count)
     * 32-bit lanes cannot carry into each other: the runaway-cycles
     * cap bounds a run at kMaxCycles + 1 pairs, two instructions each,
     * far below 2^32.
     */
    std::uint64_t statPackA = 0;
    std::uint64_t statPackB = 0;
    ThreadedKernel kernel = ThreadedKernel::Generic;
    bool halts = false; ///< for the generic kernel
    DecodedPair::Violation violation = DecodedPair::Violation::None;
    std::uint8_t violationReg = 0;
    /** Some static predecessor's loads overlap this pair's sources, so
     *  the dynamic load-delay check must run (forces Generic kernel). */
    bool checkLoadDelay = false;
};

/**
 * The threaded-code image of one program. Built by DecodedProgram
 * alongside the micro-op decode (eagerly, so pre-decoded shared handler
 * sets publish it race-free) and immutable afterwards.
 */
class ThreadedProgram
{
  public:
    ThreadedProgram(const std::string &name,
                    const std::vector<DecodedPair> &pairs);

    /** Lowered ops; ops()[pairs.size()] is the out-of-range sentinel. */
    const std::vector<ThreadedOp> &ops() const { return ops_; }

    /** Executable pairs (excluding the sentinel). */
    std::size_t size() const { return ops_.size() - 1; }

    /** Fraction of non-padding ops mapped to a specialized (non-
     *  Generic) kernel — pinned by tests so fusion coverage cannot
     *  silently rot as the handler set evolves. */
    double specializedFraction() const;

  private:
    std::vector<ThreadedOp> ops_;
};

/**
 * Execute @p d's threaded image from pair 0 until Halt over any
 * PpMemory. Exact same contract as PpSim::run (which forwards here);
 * see ppsim.hh.
 */
Cycles runThreaded(const DecodedProgram &d, RegFile &regs, PpMemory &mem,
                   std::vector<SentMessage> &sent, RunStats &stats);

} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_THREADED_HH_
