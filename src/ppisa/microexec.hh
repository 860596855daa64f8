/**
 * @file
 * Shared micro-op execution core (internal header).
 *
 * Both PP execution backends — the decoded interpreter in ppsim.cc and
 * the threaded-code engine in threaded.cc — must agree bit-for-bit on
 * every architectural effect. The generic per-slot executor and the
 * load-delay panic report therefore live here, in one place, so the
 * backends cannot drift: the threaded engine's specialized kernels
 * (threaded_exec.hh) are each a hand-unrolled copy of exactly one case
 * below, and its generic fallback kernel calls execMicro directly.
 */

#ifndef FLASHSIM_PPISA_MICROEXEC_HH_
#define FLASHSIM_PPISA_MICROEXEC_HH_

#include <cstdint>
#include <vector>

#include "ppisa/decode.hh"
#include "ppisa/ppsim.hh"
#include "sim/logging.hh"

namespace flashsim::ppisa::detail
{

/** Per-slot execution result over a decoded micro-op. */
struct MicroResult
{
    int destReg = -1;
    std::uint64_t destVal = 0;
    bool branchTaken = false;
    std::uint32_t target = 0;
};

/** Inlined into both issue slots of the dynamic loops: the call/return
 *  and the by-value MicroResult otherwise cost as much as the typical
 *  one-ALU-op payload. Typed on the memory and the Send sink like the
 *  threaded executor (threaded_exec.hh), whose Generic kernel calls it. */
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

/** Name the offending register the way the interpreter did: first
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

/** Act on a decode-time contract verdict, in the interpreter's check
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

} // namespace flashsim::ppisa::detail

#endif // FLASHSIM_PPISA_MICROEXEC_HH_
