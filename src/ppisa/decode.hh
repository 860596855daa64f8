/**
 * @file
 * The PP pre-decode pass.
 *
 * PPsim used to re-derive everything about an instruction on every
 * dynamic issue slot: srcRegs() (which heap-allocates a vector per
 * call), destReg(), the isNop/isSpecial/isAluOrBranch predicates, the
 * fieldMask() of every bitfield op, and the full static-scheduling
 * contract checks. Handlers execute millions of times per simulation,
 * so all of that per-issue work is hoisted here into a one-time decode:
 * each instruction pair is lowered into a DecodedPair of micro-ops with
 * extracted bitfields, precomputed masks, resolved branch targets,
 * per-pair statistics increments, and the contract checks resolved to a
 * verdict that the dynamic loop merely acts on.
 *
 * Only host-side decode work moves; the MAGIC instruction-cache timing
 * model is untouched (PpTimingModel still charges the MIC cold miss per
 * handler), and the dynamic loop charges cycles exactly as before.
 */

#ifndef FLASHSIM_PPISA_DECODE_HH_
#define FLASHSIM_PPISA_DECODE_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ppisa/instruction.hh"
#include "ppisa/ppsim.hh"

namespace flashsim::ppisa
{

/** A fully decoded issue slot. */
struct MicroOp
{
    Op op = Op::Nop;
    std::uint8_t rd = 0;
    std::uint8_t rs = 0;
    std::uint8_t rt = 0;
    std::uint8_t lo = 0;     ///< bit number for Bbs/Bbc
    std::uint8_t nsrcs = 0;  ///< entries used in srcs (panic reporting)
    std::uint8_t srcs[2] = {0, 0}; ///< source regs in srcRegs() order
    std::uint32_t target = 0;///< resolved branch target (pair index)
    std::int64_t imm = 0;    ///< non-branch immediate / Send type
    std::uint64_t mask = 0;  ///< precomputed fieldMask for Ext/Ins/
                             ///< Orfi/Andfi (Ext: width mask at bit 0)
};

/**
 * A decoded dual-issue pair: the two micro-ops plus everything the
 * dynamic loop previously recomputed per execution.
 */
struct DecodedPair
{
    /**
     * Static-scheduling contract verdict from decode time. The
     * reference only checks a pair when it is dynamically reached, so
     * a violation is recorded rather than reported eagerly and the
     * executor panics on arrival — unreachable bad pairs stay silent,
     * exactly as in the reference.
     */
    enum class Violation : std::uint8_t
    {
        None,
        IntraRaw,  ///< slot b reads what slot a writes
        IntraWaw,  ///< both slots write the same register
        TwoBranch, ///< two branches in one pair
    };

    MicroOp a, b;
    std::uint32_t srcMask = 0;  ///< union of source regs, r0 excluded
    std::uint32_t loadMask = 0; ///< load destination regs, r0 excluded
    std::uint8_t instrsInc = 0;    ///< non-NOP instructions in the pair
    std::uint8_t specialsInc = 0;  ///< Table 5.2 special instructions
    std::uint8_t aluBranchInc = 0; ///< Table 5.2 ALU/branch instructions
    bool halts = false;            ///< either slot is Halt
    Violation violation = Violation::None;
    std::uint8_t violationReg = 0; ///< register named in the panic
};

class ThreadedProgram;

/**
 * The decoded image of one Program, built once per handler load and
 * cached on the Program (see Program::decoded()). Remembers which
 * storage it was decoded from — data pointer, size, and the mutation
 * version bumped by Program::mutablePairs() — so a reloaded, reassigned,
 * or in-place-mutated program is re-decoded automatically.
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &prog);
    ~DecodedProgram();

    const std::string &name() const { return name_; }
    const std::vector<DecodedPair> &pairs() const { return pairs_; }

    /** The threaded-code image (see threaded.hh), built eagerly with
     *  the decode so shared pre-decoded program sets publish it too. */
    const ThreadedProgram &threaded() const { return *threaded_; }

    /** True if this decode was built from exactly @p prog's current
     *  pairs storage and mutation version. */
    bool
    matches(const Program &prog) const
    {
        return src_ == prog.pairs().data() &&
               srcCount_ == prog.pairs().size() &&
               srcVersion_ == prog.decodeVersion();
    }

  private:
    std::string name_;
    std::vector<DecodedPair> pairs_;
    std::unique_ptr<const ThreadedProgram> threaded_;
    const InstrPair *src_;
    std::size_t srcCount_;
    std::uint64_t srcVersion_;
};

} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_DECODE_HH_
