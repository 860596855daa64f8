/**
 * @file
 * The token-threaded PP executor, as a template over the memory and the
 * Send sink so that callers outside ppisa can bind it statically to
 * their own memory type (see runThreadedOn). The build side — lowering
 * DecodedPairs to ThreadedOps — and the PpMemory instantiation live in
 * threaded.cc.
 *
 * The kernels are computed-goto labels, each a hand-unrolled copy of
 * exactly one case of the generic slot executor (execMicro below), so a
 * single-issue Addi pair costs one table jump, one add, and the shared
 * epilogue. On compilers without the labels-as-values extension the
 * same kernel bodies compile into a for/switch loop (see the KERNEL /
 * DISPATCH macros).
 *
 * Bit-identical semantics with PpSim::runReference are non-negotiable;
 * the quirks worth calling out, all replicated deliberately:
 *  - regs[0] is zeroed after every pair, not before the run, so pair 0
 *    observes the caller's r0;
 *  - write-back is parallel: both slots read pre-pair register values;
 *  - slot a's memory/send op executes before slot b's;
 *  - a halting pair breaks out before the runaway-cycles check;
 *  - the runaway check runs before the pc bounds check.
 *
 * The runaway-cycles test itself is deferred from straight-line pairs
 * to control-transfer and terminal kernels; see RUNAWAY_CHECK below for
 * the argument that this is externally indistinguishable.
 */

#ifndef FLASHSIM_PPISA_THREADED_EXEC_HH_
#define FLASHSIM_PPISA_THREADED_EXEC_HH_

#include <cstdint>

#include "ppisa/decode.hh"
#include "ppisa/ppsim.hh"
#include "ppisa/threaded.hh"
#include "sim/logging.hh"

namespace flashsim::ppisa
{

/** A Send sink that drops every message: for callers that need only
 *  a handler's timing and statistics, not what it sent. */
struct DiscardSends
{
    void push_back(const SentMessage &) {}
};

namespace detail
{

/** Per-slot execution result over a decoded micro-op. */
struct MicroResult
{
    int destReg = -1;
    std::uint64_t destVal = 0;
    bool branchTaken = false;
    std::uint32_t target = 0;
};

/** The generic per-slot executor of the Generic kernel, typed on the
 *  memory and the Send sink like the executor. Inlined into both issue
 *  slots: the call/return and the by-value MicroResult otherwise cost as
 *  much as the typical one-ALU-op payload. */
template <class Mem, class Sends>
[[gnu::always_inline]] inline MicroResult
execMicro(const MicroOp &m, RegFile &regs, Mem &mem, Sends &sent,
          Cycles &stall)
{
    MicroResult r;
    auto rs = [&] { return regs[m.rs]; };
    auto rt = [&] { return regs[m.rt]; };
    auto setDest = [&](std::uint64_t v) {
        r.destReg = m.rd;
        r.destVal = v;
    };
    auto branch = [&] {
        r.branchTaken = true;
        r.target = m.target;
    };

    switch (m.op) {
      case Op::Nop:
        break;
      case Op::Add: setDest(rs() + rt()); break;
      case Op::Sub: setDest(rs() - rt()); break;
      case Op::And: setDest(rs() & rt()); break;
      case Op::Or: setDest(rs() | rt()); break;
      case Op::Xor: setDest(rs() ^ rt()); break;
      case Op::Sllv: setDest(rs() << (rt() & 63)); break;
      case Op::Srlv: setDest(rs() >> (rt() & 63)); break;
      case Op::Slt:
        setDest(static_cast<std::int64_t>(rs()) <
                        static_cast<std::int64_t>(rt())
                    ? 1
                    : 0);
        break;
      case Op::Sltu: setDest(rs() < rt() ? 1 : 0); break;
      case Op::Addi:
        setDest(rs() + static_cast<std::uint64_t>(m.imm));
        break;
      case Op::Andi:
        setDest(rs() & static_cast<std::uint64_t>(m.imm));
        break;
      case Op::Ori:
        setDest(rs() | static_cast<std::uint64_t>(m.imm));
        break;
      case Op::Xori:
        setDest(rs() ^ static_cast<std::uint64_t>(m.imm));
        break;
      case Op::Slli: setDest(rs() << (m.imm & 63)); break;
      case Op::Srli: setDest(rs() >> (m.imm & 63)); break;
      case Op::Srai:
        setDest(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(rs()) >> (m.imm & 63)));
        break;
      case Op::Slti:
        setDest(static_cast<std::int64_t>(rs()) < m.imm ? 1 : 0);
        break;
      case Op::Ld: {
        Cycles extra = 0;
        std::uint64_t v =
            mem.load(rs() + static_cast<std::uint64_t>(m.imm), extra);
        stall += extra;
        setDest(v);
        break;
      }
      case Op::Sd: {
        Cycles extra = 0;
        mem.store(rs() + static_cast<std::uint64_t>(m.imm), rt(), extra);
        stall += extra;
        break;
      }
      case Op::Beq:
        if (rs() == rt())
            branch();
        break;
      case Op::Bne:
        if (rs() != rt())
            branch();
        break;
      case Op::J:
        branch();
        break;
      case Op::Halt:
        break;
      case Op::Ffs: {
        std::uint64_t v = rs();
        setDest(v == 0 ? 64 : static_cast<std::uint64_t>(
                                  __builtin_ctzll(v)));
        break;
      }
      case Op::Bbs:
        if ((rs() >> m.lo) & 1)
            branch();
        break;
      case Op::Bbc:
        if (!((rs() >> m.lo) & 1))
            branch();
        break;
      case Op::Ext:
        setDest((rs() >> m.lo) & m.mask);
        break;
      case Op::Ins:
        setDest((regs[m.rd] & ~m.mask) | ((rs() << m.lo) & m.mask));
        break;
      case Op::Orfi:
        setDest(rs() | m.mask);
        break;
      case Op::Andfi:
        setDest(rs() & ~m.mask);
        break;
      case Op::Send:
        sent.push_back(
            SentMessage{static_cast<int>(m.imm), rs(), rt()});
        break;
    }
    return r;
}

/** Name the offending register the way the reference does: first
 *  source of slot a then slot b that hits a previous-pair load dest.
 *  @p a / @p b are the two micro-ops of the offending pair. */
[[noreturn]] inline void
panicLoadDelay(const MicroOp &a, const MicroOp &b, std::size_t pc,
               const char *name, std::uint32_t prev_load_mask)
{
    for (const MicroOp *m : {&a, &b}) {
        for (std::uint8_t i = 0; i < m->nsrcs; ++i) {
            const std::uint8_t src = m->srcs[i];
            if (src != 0 && ((prev_load_mask >> src) & 1))
                panic("PpSim: load-delay violation on r%d at pair %zu "
                      "of '%s'", int(src), pc, name);
        }
    }
    panic("PpSim: load-delay violation at pair %zu of '%s'", pc,
          name); // unreachable: mask hit implies a source
}

/** Act on a decode-time contract verdict, in the reference's check
 *  order (intra-pair RAW, intra-pair WAW, then two-branch — load-delay
 *  sits between WAW and two-branch and is checked by the caller). */
[[noreturn]] inline void
panicViolation(DecodedPair::Violation v, std::uint8_t violation_reg,
               std::size_t pc, const char *name)
{
    switch (v) {
      case DecodedPair::Violation::IntraRaw:
        panic("PpSim: intra-pair RAW on r%d at pair %zu of '%s'",
              int(violation_reg), pc, name);
      case DecodedPair::Violation::IntraWaw:
        panic("PpSim: intra-pair WAW on r%d at pair %zu of '%s'",
              int(violation_reg), pc, name);
      case DecodedPair::Violation::TwoBranch:
        panic("PpSim: two branches in pair %zu of '%s'", pc, name);
      case DecodedPair::Violation::None:
        break;
    }
    panic("PpSim: unknown contract violation at pair %zu of '%s'", pc,
          name);
}

/** Value computed by a pure-ALU micro-op over the pre-pair register
 *  file. Reads only; the caller does the (parallel) write-back. */
[[gnu::always_inline]] inline std::uint64_t
evalAlu(const MicroOp &m, const RegFile &regs)
{
    const std::uint64_t rs = regs[m.rs];
    const std::uint64_t rt = regs[m.rt];
    switch (m.op) {
      case Op::Add: return rs + rt;
      case Op::Sub: return rs - rt;
      case Op::And: return rs & rt;
      case Op::Or: return rs | rt;
      case Op::Xor: return rs ^ rt;
      case Op::Sllv: return rs << (rt & 63);
      case Op::Srlv: return rs >> (rt & 63);
      case Op::Slt:
        return static_cast<std::int64_t>(rs) < static_cast<std::int64_t>(rt)
                   ? 1
                   : 0;
      case Op::Sltu: return rs < rt ? 1 : 0;
      case Op::Addi: return rs + static_cast<std::uint64_t>(m.imm);
      case Op::Andi: return rs & static_cast<std::uint64_t>(m.imm);
      case Op::Ori: return rs | static_cast<std::uint64_t>(m.imm);
      case Op::Xori: return rs ^ static_cast<std::uint64_t>(m.imm);
      case Op::Slli: return rs << (m.imm & 63);
      case Op::Srli: return rs >> (m.imm & 63);
      case Op::Srai:
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(rs) >>
                                          (m.imm & 63));
      case Op::Slti: return static_cast<std::int64_t>(rs) < m.imm ? 1 : 0;
      case Op::Ffs:
        return rs == 0 ? 64
                       : static_cast<std::uint64_t>(__builtin_ctzll(rs));
      case Op::Ext: return (rs >> m.lo) & m.mask;
      case Op::Ins: return (regs[m.rd] & ~m.mask) | ((rs << m.lo) & m.mask);
      case Op::Orfi: return rs | m.mask;
      case Op::Andfi: return rs & ~m.mask;
      default:
        // Build-time selection only routes pure-ALU ops here.
        return 0;
    }
}

/** Branch decision over the pre-pair register file. */
[[gnu::always_inline]] inline bool
evalBranchTaken(const MicroOp &m, const RegFile &regs)
{
    switch (m.op) {
      case Op::Beq: return regs[m.rs] == regs[m.rt];
      case Op::Bne: return regs[m.rs] != regs[m.rt];
      case Op::J: return true;
      case Op::Bbs: return ((regs[m.rs] >> m.lo) & 1) != 0;
      case Op::Bbc: return ((regs[m.rs] >> m.lo) & 1) == 0;
      default: return false;
    }
}


} // namespace detail

// Token threading needs the GNU labels-as-values extension; elsewhere
// the same kernel bodies become cases of a for/switch loop.
#if defined(__GNUC__) || defined(__clang__)
#define FLASHSIM_THREADED_GOTO 1
#endif

#if FLASHSIM_THREADED_GOTO
#define KERNEL(n) k_##n
#define DISPATCH() goto *ktab[static_cast<int>(op->kernel)]
#else
#define KERNEL(n) case ThreadedKernel::n
#define DISPATCH() continue
#endif

/** Shared per-pair epilogue: zero r0, fold statistics (two packed
 *  adds; see ThreadedOp::statPackA), charge cycles, expose this pair's
 *  load mask, step to NEXT_OP, and re-dispatch. Expects `t` (the
 *  current op) in scope.
 *
 *  Unlike the reference, straight-line kernels do NOT test the
 *  runaway-cycles budget here: the check runs at every control
 *  transfer (branch kernels, Generic) and on entry to every terminal
 *  kernel (Halt, OutOfRange, Violation) instead — see RUNAWAY_CHECK
 *  below for why that is externally indistinguishable. */
#define STEP_EPILOGUE_BASE(STALL, LOADMASK, NEXT_OP)                      \
    regs[0] = 0;                                                          \
    statA += t.statPackA;                                                 \
    statB += t.statPackB;                                                 \
    cycles += 1 + (STALL);                                                \
    memStall += (STALL);                                                  \
    prevLoadMask = (LOADMASK);                                            \
    op = (NEXT_OP)

#define STEP_EPILOGUE(STALL, LOADMASK, NEXT_OP)                           \
    STEP_EPILOGUE_BASE(STALL, LOADMASK, NEXT_OP);                         \
    DISPATCH()

/** Epilogue for control-transfer kernels: same, plus the deferred
 *  runaway test (after this pair's cycle charge, like the
 *  reference's own post-pair check). */
#define STEP_EPILOGUE_CHECKED(STALL, LOADMASK, NEXT_OP)                   \
    STEP_EPILOGUE_BASE(STALL, LOADMASK, NEXT_OP);                         \
    RUNAWAY_CHECK();                                                      \
    DISPATCH()

/**
 * Deferred runaway test. The reference checks `cycles > kMaxCycles`
 * after every executed non-halting pair; the threaded executor checks
 * only where it matters for observable behaviour:
 *
 *  - cycles are monotone, so "some earlier non-halting pair crossed
 *    the budget" is exactly "cycles > kMaxCycles now";
 *  - a crossing inside a straight-line stretch is always followed by a
 *    checked kernel (every loop needs a taken branch or Generic, and
 *    every run ends in Halt / OutOfRange / Violation / Generic, all of
 *    which check on entry before raising any other panic — preserving
 *    the reference's runaway-before-bounds-check ordering);
 *  - panic() aborts the process with a message that carries no pair
 *    index, so reporting the runaway a few ALU pairs late is
 *    indistinguishable from outside.
 */
#define RUNAWAY_CHECK()                                                   \
    if (cycles > PpSim::kMaxCycles) [[unlikely]]                          \
    panic("PpSim: runaway handler '%s'", name)

/** Single-issue ALU kernel: one value computation plus the epilogue.
 *  EXPR may use `rs`, `rt`, `regs`, and `t.a`. A destination of r0 is
 *  fine: the write lands in regs[0] and the epilogue re-zeroes it,
 *  which is the reference's net effect. */
#define ALU_KERNEL(K, EXPR)                                               \
    KERNEL(K) : {                                                         \
        const ThreadedOp &t = *op;                                        \
        const std::uint64_t rs = regs[t.a.rs];                            \
        const std::uint64_t rt = regs[t.a.rt];                            \
        (void)rt;                                                         \
        regs[t.a.rd] = (EXPR);                                            \
        STEP_EPILOGUE(0, 0, op + 1);                                      \
    }

/** Single-issue branch kernel: TAKEN may use `regs` and `t.a`. */
#define BRANCH_KERNEL(K, TAKEN)                                           \
    KERNEL(K) : {                                                         \
        const ThreadedOp &t = *op;                                        \
        const bool taken = (TAKEN);                                       \
        STEP_EPILOGUE_CHECKED(0, 0, taken ? base + t.a.target : op + 1);  \
    }

/**
 * The executor, statically typed on the memory implementation and the
 * Send sink. Mem needs load(addr, extra) and store(addr, value, extra);
 * Sends needs push_back(SentMessage). A final Mem with inline members
 * folds every memory op into its kernel; Mem = PpMemory keeps the
 * virtual calls for any implementation. Instantiations:
 *  - threaded.cc: <PpMemory, vector> (PpSim::run, the oracle recorder);
 *  - magic/timing_model.cc: <magic::ShadowMemory, DiscardSends>, MAGIC's
 *    per-message timing path.
 */
template <class Mem, class Sends>
Cycles
runThreadedOn(const DecodedProgram &d, RegFile &regs, Mem &mem,
              Sends &sent, RunStats &stats)
{
    const ThreadedProgram &tp = d.threaded();
    const ThreadedOp *const base = tp.ops().data();
    const std::size_t npairs = tp.size();
    const ThreadedOp *op = base;
    const char *const name = d.name().c_str();

    Cycles cycles = 0;
    Cycles memStall = 0;
    std::uint32_t prevLoadMask = 0;
    // Packed statistics accumulators (layout in ThreadedOp::statPackA).
    std::uint64_t statA = 0, statB = 0;

#if FLASHSIM_THREADED_GOTO
    // One entry per ThreadedKernel enumerator, in declaration order.
    static const void *const ktab[] = {
        &&k_Generic, &&k_Violation, &&k_OutOfRange, &&k_Halt, &&k_Nop,
        &&k_Add, &&k_Sub, &&k_And, &&k_Or, &&k_Xor, &&k_Sllv, &&k_Srlv,
        &&k_Slt, &&k_Sltu, &&k_Addi, &&k_Andi, &&k_Ori, &&k_Xori,
        &&k_Slli, &&k_Srli, &&k_Srai, &&k_Slti, &&k_Ld, &&k_Sd, &&k_Beq,
        &&k_Bne, &&k_J, &&k_Ffs, &&k_Bbs, &&k_Bbc, &&k_Ext, &&k_Ins,
        &&k_Orfi, &&k_Andfi, &&k_Send, &&k_FuseAddiAddi, &&k_FuseLdAddi,
        &&k_FuseLdAlu, &&k_FuseLdSend, &&k_FuseSdSend, &&k_FuseAluAlu,
        &&k_FuseAluLd, &&k_FuseAluSend, &&k_FuseSendAlu, &&k_FuseAluBr,
    };
    static_assert(sizeof(ktab) / sizeof(ktab[0]) ==
                      static_cast<std::size_t>(ThreadedKernel::Count_),
                  "dispatch table out of sync with ThreadedKernel");
    DISPATCH();
#else
    for (;;) {
        switch (op->kernel) {
#endif

    // The full per-pair step: contract checking, generic two-slot
    // execution, bounds-checked next pc. Every pair a specialized
    // kernel cannot take (decode-time contract violations excepted)
    // lands here, so the executor runs any program the reference runs.
    KERNEL(Generic) : {
        const ThreadedOp &t = *op;
        RUNAWAY_CHECK(); // deferred from preceding straight-line pairs
        if ((t.srcMask & prevLoadMask) != 0) [[unlikely]]
            detail::panicLoadDelay(t.a, t.b,
                                   static_cast<std::size_t>(op - base),
                                   name, prevLoadMask);
        Cycles stall = 0;
        detail::MicroResult ra =
            detail::execMicro(t.a, regs, mem, sent, stall);
        detail::MicroResult rb;
        if (t.b.op != Op::Nop)
            rb = detail::execMicro(t.b, regs, mem, sent, stall);
        if (ra.destReg > 0)
            regs[ra.destReg] = ra.destVal;
        if (rb.destReg > 0)
            regs[rb.destReg] = rb.destVal;
        regs[0] = 0;
        statA += t.statPackA;
        statB += t.statPackB;
        cycles += 1 + stall;
        memStall += stall;
        prevLoadMask = t.loadMask;
        if (t.halts)
            goto done;
        std::size_t next;
        if (ra.branchTaken)
            next = ra.target;
        else if (rb.branchTaken)
            next = rb.target;
        else
            next = static_cast<std::size_t>(op - base) + 1;
        if (cycles > PpSim::kMaxCycles) [[unlikely]]
            panic("PpSim: runaway handler '%s'", name);
        if (next > npairs) [[unlikely]]
            panic("PpSim: pc %zu out of range in '%s'", next, name);
        op = base + next;
        DISPATCH();
    }

    KERNEL(Violation) : {
        const ThreadedOp &t = *op;
        // An exhausted budget would have stopped the reference before
        // it ever reached (and reported) this pair.
        RUNAWAY_CHECK();
        const std::size_t pc = static_cast<std::size_t>(op - base);
        using V = DecodedPair::Violation;
        // Reference check order: intra-pair RAW/WAW first, then the
        // load-delay check, then two-branch.
        if (t.violation == V::IntraRaw || t.violation == V::IntraWaw)
            detail::panicViolation(t.violation, t.violationReg, pc, name);
        if ((t.srcMask & prevLoadMask) != 0)
            detail::panicLoadDelay(t.a, t.b, pc, name, prevLoadMask);
        detail::panicViolation(t.violation, t.violationReg, pc, name);
    }

    KERNEL(OutOfRange) : {
        // Runaway before bounds, the reference's check order.
        RUNAWAY_CHECK();
        panic("PpSim: pc %zu out of range in '%s'",
              static_cast<std::size_t>(op - base), name);
    }

    KERNEL(Halt) : {
        // {Halt, Nop}: the reference executes the (effect-free) pair,
        // zeroes r0, folds statistics, charges the cycle, and breaks
        // before checking its own budget — but it did check after every
        // earlier pair, which the deferred test reproduces exactly
        // (entry cycles here are the cycles after the last pre-halt
        // pair).
        const ThreadedOp &t = *op;
        RUNAWAY_CHECK();
        regs[0] = 0;
        statA += t.statPackA;
        statB += t.statPackB;
        cycles += 1;
        goto done;
    }

    KERNEL(Nop) : {
        const ThreadedOp &t = *op;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    ALU_KERNEL(Add, rs + rt)
    ALU_KERNEL(Sub, rs - rt)
    ALU_KERNEL(And, rs & rt)
    ALU_KERNEL(Or, rs | rt)
    ALU_KERNEL(Xor, rs ^ rt)
    ALU_KERNEL(Sllv, rs << (rt & 63))
    ALU_KERNEL(Srlv, rs >> (rt & 63))
    ALU_KERNEL(Slt, static_cast<std::int64_t>(rs) <
                            static_cast<std::int64_t>(rt)
                        ? 1
                        : 0)
    ALU_KERNEL(Sltu, rs < rt ? 1 : 0)
    ALU_KERNEL(Addi, rs + static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Andi, rs & static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Ori, rs | static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Xori, rs ^ static_cast<std::uint64_t>(t.a.imm))
    ALU_KERNEL(Slli, rs << (t.a.imm & 63))
    ALU_KERNEL(Srli, rs >> (t.a.imm & 63))
    ALU_KERNEL(Srai, static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(rs) >> (t.a.imm & 63)))
    ALU_KERNEL(Slti, static_cast<std::int64_t>(rs) < t.a.imm ? 1 : 0)
    ALU_KERNEL(Ffs, rs == 0
                        ? 64
                        : static_cast<std::uint64_t>(__builtin_ctzll(rs)))
    ALU_KERNEL(Ext, (rs >> t.a.lo) & t.a.mask)
    ALU_KERNEL(Ins, (regs[t.a.rd] & ~t.a.mask) |
                        ((rs << t.a.lo) & t.a.mask))
    ALU_KERNEL(Orfi, rs | t.a.mask)
    ALU_KERNEL(Andfi, rs & ~t.a.mask)

    KERNEL(Ld) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t v = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        regs[t.a.rd] = v;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(Sd) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        mem.store(regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm),
                  regs[t.a.rt], stall);
        STEP_EPILOGUE(stall, 0, op + 1);
    }

    BRANCH_KERNEL(Beq, regs[t.a.rs] == regs[t.a.rt])
    BRANCH_KERNEL(Bne, regs[t.a.rs] != regs[t.a.rt])
    BRANCH_KERNEL(J, true)
    BRANCH_KERNEL(Bbs, ((regs[t.a.rs] >> t.a.lo) & 1) != 0)
    BRANCH_KERNEL(Bbc, ((regs[t.a.rs] >> t.a.lo) & 1) == 0)

    KERNEL(Send) : {
        const ThreadedOp &t = *op;
        sent.push_back(SentMessage{static_cast<int>(t.a.imm),
                                   regs[t.a.rs], regs[t.a.rt]});
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseAddiAddi) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va =
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm);
        const std::uint64_t vb =
            regs[t.b.rs] + static_cast<std::uint64_t>(t.b.imm);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseLdAddi) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t va = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        const std::uint64_t vb =
            regs[t.b.rs] + static_cast<std::uint64_t>(t.b.imm);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseLdAlu) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t va = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        const std::uint64_t vb = detail::evalAlu(t.b, regs);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseLdSend) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        const std::uint64_t va = mem.load(
            regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm), stall);
        sent.push_back(SentMessage{static_cast<int>(t.b.imm),
                                   regs[t.b.rs], regs[t.b.rt]});
        regs[t.a.rd] = va;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseSdSend) : {
        const ThreadedOp &t = *op;
        Cycles stall = 0;
        mem.store(regs[t.a.rs] + static_cast<std::uint64_t>(t.a.imm),
                  regs[t.a.rt], stall);
        sent.push_back(SentMessage{static_cast<int>(t.b.imm),
                                   regs[t.b.rs], regs[t.b.rt]});
        STEP_EPILOGUE(stall, 0, op + 1);
    }

    KERNEL(FuseAluAlu) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = detail::evalAlu(t.a, regs);
        const std::uint64_t vb = detail::evalAlu(t.b, regs);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseAluLd) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = detail::evalAlu(t.a, regs);
        Cycles stall = 0;
        const std::uint64_t vb = mem.load(
            regs[t.b.rs] + static_cast<std::uint64_t>(t.b.imm), stall);
        regs[t.a.rd] = va;
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(stall, t.loadMask, op + 1);
    }

    KERNEL(FuseAluSend) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = detail::evalAlu(t.a, regs);
        sent.push_back(SentMessage{static_cast<int>(t.b.imm),
                                   regs[t.b.rs], regs[t.b.rt]});
        regs[t.a.rd] = va;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseSendAlu) : {
        const ThreadedOp &t = *op;
        sent.push_back(SentMessage{static_cast<int>(t.a.imm),
                                   regs[t.a.rs], regs[t.a.rt]});
        const std::uint64_t vb = detail::evalAlu(t.b, regs);
        regs[t.b.rd] = vb;
        STEP_EPILOGUE(0, 0, op + 1);
    }

    KERNEL(FuseAluBr) : {
        const ThreadedOp &t = *op;
        const std::uint64_t va = detail::evalAlu(t.a, regs);
        const bool taken = detail::evalBranchTaken(t.b, regs);
        regs[t.a.rd] = va;
        STEP_EPILOGUE_CHECKED(0, 0, taken ? base + t.b.target : op + 1);
    }

#if !FLASHSIM_THREADED_GOTO
        case ThreadedKernel::Count_:
            panic("PpSim: corrupt kernel token in '%s'", name);
        }
    }
#endif

done:
    stats.instrs += statA & 0xffffffffu;
    stats.specials += statA >> 32;
    stats.aluBranch += statB & 0xffffffffu;
    stats.pairs += statB >> 32;
    stats.memStall += memStall;
    stats.cycles += cycles;
    ++stats.invocations;
    return cycles;
}


#undef STEP_EPILOGUE_BASE
#undef STEP_EPILOGUE
#undef STEP_EPILOGUE_CHECKED
#undef RUNAWAY_CHECK
#undef ALU_KERNEL
#undef BRANCH_KERNEL
#undef KERNEL
#undef DISPATCH


} // namespace flashsim::ppisa

#endif // FLASHSIM_PPISA_THREADED_EXEC_HH_
