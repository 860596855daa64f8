/**
 * @file
 * Token-threaded PP executor: build side and the PpMemory instantiation.
 *
 * Build side: lower every DecodedPair to a ThreadedOp carrying a kernel
 * token, resolving at build time what the reference re-checks every
 * pair (contract verdicts, branch-target bounds, load-delay
 * reachability). Run side: the executor template in threaded_exec.hh,
 * instantiated here on PpMemory.
 */

#include "ppisa/threaded.hh"

#include "ppisa/threaded_exec.hh"

namespace flashsim::ppisa
{

namespace
{

bool
isBranchOp(Op op)
{
    switch (op) {
      case Op::Beq:
      case Op::Bne:
      case Op::J:
      case Op::Bbs:
      case Op::Bbc:
        return true;
      default:
        return false;
    }
}

/** Register-to-register ops with no memory, branch, send, or halt side
 *  effects — the slots the fused dual-issue kernels can evaluate with a
 *  plain value computation. */
bool
isPureAlu(Op op)
{
    switch (op) {
      case Op::Add:
      case Op::Sub:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Sllv:
      case Op::Srlv:
      case Op::Slt:
      case Op::Sltu:
      case Op::Addi:
      case Op::Andi:
      case Op::Ori:
      case Op::Xori:
      case Op::Slli:
      case Op::Srli:
      case Op::Srai:
      case Op::Slti:
      case Op::Ffs:
      case Op::Ext:
      case Op::Ins:
      case Op::Orfi:
      case Op::Andfi:
        return true;
      default:
        return false;
    }
}

/**
 * Pick the kernel for one pair. @p npairs bounds branch targets: a
 * target of exactly npairs lands on the out-of-range sentinel (same
 * panic as the reference's bounds check), anything beyond must go
 * through the Generic kernel, which range-checks the computed pc.
 */
ThreadedKernel
selectKernel(const DecodedPair &p, bool check_load_delay,
             std::size_t npairs)
{
    using K = ThreadedKernel;
    if (p.violation != DecodedPair::Violation::None)
        return K::Violation;
    if (check_load_delay)
        return K::Generic;
    if (p.halts)
        return (p.a.op == Op::Halt && p.b.op == Op::Nop) ? K::Halt
                                                         : K::Generic;

    const bool targetOk = [&](const MicroOp &m) {
        return m.target <= npairs;
    }(isBranchOp(p.b.op) ? p.b : p.a);

    if (p.b.op == Op::Nop) {
        switch (p.a.op) {
          case Op::Nop: return K::Nop;
          case Op::Add: return K::Add;
          case Op::Sub: return K::Sub;
          case Op::And: return K::And;
          case Op::Or: return K::Or;
          case Op::Xor: return K::Xor;
          case Op::Sllv: return K::Sllv;
          case Op::Srlv: return K::Srlv;
          case Op::Slt: return K::Slt;
          case Op::Sltu: return K::Sltu;
          case Op::Addi: return K::Addi;
          case Op::Andi: return K::Andi;
          case Op::Ori: return K::Ori;
          case Op::Xori: return K::Xori;
          case Op::Slli: return K::Slli;
          case Op::Srli: return K::Srli;
          case Op::Srai: return K::Srai;
          case Op::Slti: return K::Slti;
          case Op::Ld: return K::Ld;
          case Op::Sd: return K::Sd;
          case Op::Beq: return targetOk ? K::Beq : K::Generic;
          case Op::Bne: return targetOk ? K::Bne : K::Generic;
          case Op::J: return targetOk ? K::J : K::Generic;
          case Op::Ffs: return K::Ffs;
          case Op::Bbs: return targetOk ? K::Bbs : K::Generic;
          case Op::Bbc: return targetOk ? K::Bbc : K::Generic;
          case Op::Ext: return K::Ext;
          case Op::Ins: return K::Ins;
          case Op::Orfi: return K::Orfi;
          case Op::Andfi: return K::Andfi;
          case Op::Send: return K::Send;
          case Op::Halt: return K::Generic; // unreachable: halts above
        }
        return K::Generic;
    }

    // Dual-issue fusions, most specific first. The named pairs are the
    // hottest combinations in the static micro-op profile over the
    // protocol handler set (ppc/profile.hh); the class-based fusions
    // cover the long tail of ALU-heavy pairs.
    const bool aluA = isPureAlu(p.a.op);
    const bool aluB = isPureAlu(p.b.op);
    if (p.a.op == Op::Addi && p.b.op == Op::Addi)
        return K::FuseAddiAddi;
    if (p.a.op == Op::Ld) {
        if (p.b.op == Op::Addi)
            return K::FuseLdAddi;
        if (aluB)
            return K::FuseLdAlu;
        if (p.b.op == Op::Send)
            return K::FuseLdSend;
        return K::Generic;
    }
    if (p.a.op == Op::Sd && p.b.op == Op::Send)
        return K::FuseSdSend;
    if (p.a.op == Op::Send && aluB)
        return K::FuseSendAlu;
    if (aluA) {
        if (aluB)
            return K::FuseAluAlu;
        if (p.b.op == Op::Ld)
            return K::FuseAluLd;
        if (p.b.op == Op::Send)
            return K::FuseAluSend;
        if (isBranchOp(p.b.op))
            return targetOk ? K::FuseAluBr : K::Generic;
    }
    return K::Generic;
}

} // namespace

ThreadedProgram::ThreadedProgram(const std::string &name,
                                 const std::vector<DecodedPair> &pairs)
{
    (void)name;
    const std::size_t npairs = pairs.size();

    // Static load-delay reachability: collect, per pair, the union of
    // load masks of every static predecessor (fall-through and branch
    // targets; a halting pair has no successors and a J pair never
    // falls through). Only pairs where that union overlaps the source
    // mask need the runtime load-delay check — in correctly scheduled
    // code, none do. The runtime check itself stays exact (it tests the
    // dynamic prevLoadMask), so over-approximation here costs a check,
    // never a spurious panic.
    std::vector<std::uint32_t> predLoad(npairs, 0);
    for (std::size_t i = 0; i < npairs; ++i) {
        const DecodedPair &p = pairs[i];
        if (p.halts)
            continue;
        bool unconditional = false;
        for (const MicroOp *m : {&p.a, &p.b}) {
            if (!isBranchOp(m->op))
                continue;
            if (m->op == Op::J)
                unconditional = true;
            if (m->target < npairs)
                predLoad[m->target] |= p.loadMask;
        }
        if (!unconditional && i + 1 < npairs)
            predLoad[i + 1] |= p.loadMask;
    }

    ops_.reserve(npairs + 1);
    for (std::size_t i = 0; i < npairs; ++i) {
        const DecodedPair &p = pairs[i];
        ThreadedOp t;
        t.a = p.a;
        t.b = p.b;
        t.srcMask = p.srcMask;
        t.loadMask = p.loadMask;
        t.instrsInc = p.instrsInc;
        t.specialsInc = p.specialsInc;
        t.aluBranchInc = p.aluBranchInc;
        t.statPackA = static_cast<std::uint64_t>(p.instrsInc) |
                      static_cast<std::uint64_t>(p.specialsInc) << 32;
        t.statPackB = static_cast<std::uint64_t>(p.aluBranchInc) |
                      std::uint64_t{1} << 32;
        t.halts = p.halts;
        t.violation = p.violation;
        t.violationReg = p.violationReg;
        t.checkLoadDelay = (predLoad[i] & p.srcMask) != 0;
        t.kernel = selectKernel(p, t.checkLoadDelay, npairs);
        ops_.push_back(t);
    }

    // Sentinel one past the end: falling through the last pair (or
    // branching to exactly npairs) dispatches here and raises the
    // reference's pc-out-of-range panic.
    ThreadedOp sentinel;
    sentinel.kernel = ThreadedKernel::OutOfRange;
    ops_.push_back(sentinel);
}

double
ThreadedProgram::specializedFraction() const
{
    std::size_t total = 0, specialized = 0;
    for (std::size_t i = 0; i + 1 < ops_.size(); ++i) {
        if (ops_[i].kernel == ThreadedKernel::Nop)
            continue; // padding: nothing to specialize
        ++total;
        if (ops_[i].kernel != ThreadedKernel::Generic)
            ++specialized;
    }
    return total ? static_cast<double>(specialized) / total : 1.0;
}

Cycles
runThreaded(const DecodedProgram &d, RegFile &regs, PpMemory &mem,
            std::vector<SentMessage> &sent, RunStats &stats)
{
    return runThreadedOn(d, regs, mem, sent, stats);
}

} // namespace flashsim::ppisa
