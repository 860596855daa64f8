#include "ppisa/ppsim.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "ppisa/decode.hh"
#include "ppisa/threaded.hh"
#include "sim/logging.hh"

namespace flashsim::ppisa
{

std::string
Program::toString() const
{
    std::ostringstream os;
    os << name << " (" << pairs_.size() << " pairs, " << codeBytes()
       << " bytes)\n";
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
        os << "  " << i << ": [" << pairs_[i].a.toString() << " | "
           << pairs_[i].b.toString() << "]\n";
    }
    return os.str();
}

void
RunStats::accumulate(const RunStats &other)
{
    cycles += other.cycles;
    pairs += other.pairs;
    instrs += other.instrs;
    specials += other.specials;
    aluBranch += other.aluBranch;
    memStall += other.memStall;
    invocations += other.invocations;
}

double
RunStats::dualIssueEfficiency() const
{
    return pairs ? static_cast<double>(instrs) / pairs : 0.0;
}

double
RunStats::specialFraction() const
{
    return aluBranch ? static_cast<double>(specials) / aluBranch : 0.0;
}

double
RunStats::pairsPerInvocation() const
{
    return invocations ? static_cast<double>(pairs) / invocations : 0.0;
}

namespace
{

/** Per-slot execution result. */
struct SlotResult
{
    int destReg = -1;
    std::uint64_t destVal = 0;
    bool branchTaken = false;
    std::int64_t branchTarget = 0;
};

SlotResult
execSlot(const Instr &in, RegFile &regs, PpMemory &mem,
         std::vector<SentMessage> &sent, Cycles &stall)
{
    SlotResult r;
    auto rs = [&] { return regs[in.rs]; };
    auto rt = [&] { return regs[in.rt]; };
    auto setDest = [&](std::uint64_t v) {
        r.destReg = in.rd;
        r.destVal = v;
    };

    switch (in.op) {
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
        setDest(rs() + static_cast<std::uint64_t>(in.imm));
        break;
      case Op::Andi:
        setDest(rs() & static_cast<std::uint64_t>(in.imm));
        break;
      case Op::Ori:
        setDest(rs() | static_cast<std::uint64_t>(in.imm));
        break;
      case Op::Xori:
        setDest(rs() ^ static_cast<std::uint64_t>(in.imm));
        break;
      case Op::Slli: setDest(rs() << (in.imm & 63)); break;
      case Op::Srli: setDest(rs() >> (in.imm & 63)); break;
      case Op::Srai:
        setDest(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(rs()) >> (in.imm & 63)));
        break;
      case Op::Slti:
        setDest(static_cast<std::int64_t>(rs()) < in.imm ? 1 : 0);
        break;
      case Op::Ld: {
        Cycles extra = 0;
        std::uint64_t v =
            mem.load(rs() + static_cast<std::uint64_t>(in.imm), extra);
        stall += extra;
        setDest(v);
        break;
      }
      case Op::Sd: {
        Cycles extra = 0;
        mem.store(rs() + static_cast<std::uint64_t>(in.imm), rt(), extra);
        stall += extra;
        break;
      }
      case Op::Beq:
        if (rs() == rt()) {
            r.branchTaken = true;
            r.branchTarget = in.imm;
        }
        break;
      case Op::Bne:
        if (rs() != rt()) {
            r.branchTaken = true;
            r.branchTarget = in.imm;
        }
        break;
      case Op::J:
        r.branchTaken = true;
        r.branchTarget = in.imm;
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
        if ((rs() >> in.lo) & 1) {
            r.branchTaken = true;
            r.branchTarget = in.imm;
        }
        break;
      case Op::Bbc:
        if (!((rs() >> in.lo) & 1)) {
            r.branchTaken = true;
            r.branchTarget = in.imm;
        }
        break;
      case Op::Ext:
        setDest((rs() >> in.lo) & fieldMask(0, in.width));
        break;
      case Op::Ins: {
        std::uint64_t mask = fieldMask(in.lo, in.width);
        setDest((regs[in.rd] & ~mask) | ((rs() << in.lo) & mask));
        break;
      }
      case Op::Orfi:
        setDest(rs() | fieldMask(in.lo, in.width));
        break;
      case Op::Andfi:
        setDest(rs() & ~fieldMask(in.lo, in.width));
        break;
      case Op::Send:
        sent.push_back(
            SentMessage{static_cast<int>(in.imm), rs(), rt()});
        break;
    }
    return r;
}

void
countInstr(const Instr &in, RunStats &stats)
{
    if (in.isNop())
        return;
    ++stats.instrs;
    if (in.isSpecial())
        ++stats.specials;
    if (in.isAluOrBranch())
        ++stats.aluBranch;
}

/** One memory operation observed during a checked run. */
struct MemOp
{
    bool isStore = false;
    Addr addr = 0;
    std::uint64_t value = 0; ///< loaded value / stored value
    Cycles extra = 0;        ///< stall cycles the real memory charged
};

/**
 * Conformance-oracle plumbing: the threaded executor runs against the
 * real memory through RecordingMemory, which logs every operation;
 * runReference then re-runs against ReplayMemory, which serves the
 * recorded loads (the real memory has already been mutated, so
 * re-issuing the ops would double-apply stores and observe its own
 * writes) and cross-checks that the reference issues the exact same
 * operation sequence.
 */
class RecordingMemory : public PpMemory
{
  public:
    explicit RecordingMemory(PpMemory &real) : real_(real) {}

    std::uint64_t
    load(Addr addr, Cycles &extra_cycles) override
    {
        const std::uint64_t v = real_.load(addr, extra_cycles);
        log_.push_back(MemOp{false, addr, v, extra_cycles});
        return v;
    }

    void
    store(Addr addr, std::uint64_t value, Cycles &extra_cycles) override
    {
        real_.store(addr, value, extra_cycles);
        log_.push_back(MemOp{true, addr, value, extra_cycles});
    }

    const std::vector<MemOp> &log() const { return log_; }

  private:
    PpMemory &real_;
    std::vector<MemOp> log_;
};

class ReplayMemory : public PpMemory
{
  public:
    ReplayMemory(const std::vector<MemOp> &log, const char *prog_name)
        : log_(log), name_(prog_name)
    {
    }

    std::uint64_t
    load(Addr addr, Cycles &extra_cycles) override
    {
        const MemOp &op = next("load", addr);
        if (op.isStore || op.addr != addr)
            mismatch("load", addr);
        extra_cycles = op.extra;
        return op.value;
    }

    void
    store(Addr addr, std::uint64_t value, Cycles &extra_cycles) override
    {
        const MemOp &op = next("store", addr);
        if (!op.isStore || op.addr != addr || op.value != value)
            mismatch("store", addr);
        extra_cycles = op.extra;
    }

    bool drained() const { return pos_ == log_.size(); }

  private:
    const MemOp &
    next(const char *kind, Addr addr)
    {
        if (pos_ >= log_.size())
            panic("PpSim oracle: reference issued an extra %s of "
                  "0x%llx in '%s' (threaded backend issued %zu memory "
                  "ops)", kind, static_cast<unsigned long long>(addr),
                  name_, log_.size());
        return log_[pos_++];
    }

    [[noreturn]] void
    mismatch(const char *kind, Addr addr)
    {
        const MemOp &op = log_[pos_ - 1];
        panic("PpSim oracle: memory-op divergence in '%s' at op %zu: "
              "reference issued %s of 0x%llx, threaded backend issued "
              "%s of 0x%llx", name_, pos_ - 1, kind,
              static_cast<unsigned long long>(addr),
              op.isStore ? "store" : "load",
              static_cast<unsigned long long>(op.addr));
    }

    const std::vector<MemOp> &log_;
    const char *name_;
    std::size_t pos_ = 0;
};

} // namespace

bool
PpSim::oracleEnabled()
{
    static const bool enabled = [] {
        if (const char *env = std::getenv("FS_PP_ORACLE"))
            return env[0] == '1' && env[1] == '\0';
#ifdef NDEBUG
        return false;
#else
        return true;
#endif
    }();
    return enabled;
}

Cycles
PpSim::run(const Program &prog, RegFile &regs, PpMemory &mem,
           std::vector<SentMessage> &sent, RunStats &stats) const
{
    if (prog.pairs().empty())
        panic("PpSim: empty program '%s'", prog.name.c_str());
    return run(prog, prog.decoded(), regs, mem, sent, stats);
}

Cycles
PpSim::run(const Program &prog, const DecodedProgram &d, RegFile &regs,
           PpMemory &mem, std::vector<SentMessage> &sent,
           RunStats &stats) const
{
    if (d.pairs().empty()) [[unlikely]]
        panic("PpSim: empty program '%s'", prog.name.c_str());

    if (checked_) [[unlikely]]
        return runThreadedChecked(prog, regs, mem, sent, stats);
    return runThreaded(d, regs, mem, sent, stats);
}

Cycles
PpSim::runThreadedChecked(const Program &prog, RegFile &regs,
                          PpMemory &mem, std::vector<SentMessage> &sent,
                          RunStats &stats) const
{
    const char *name = prog.name.c_str();
    const RegFile regsIn = regs;

    RecordingMemory recording(mem);
    RunStats threadedStats;
    std::vector<SentMessage> threadedSent;
    const Cycles cycles = runThreaded(prog.decoded(), regs, recording,
                                      threadedSent, threadedStats);

    RegFile refRegs = regsIn;
    ReplayMemory replay(recording.log(), name);
    RunStats refStats;
    std::vector<SentMessage> refSent;
    const Cycles refCycles =
        runReference(prog, refRegs, replay, refSent, refStats);

    if (refCycles != cycles)
        panic("PpSim oracle: cycle divergence in '%s': threaded %llu, "
              "reference %llu", name,
              static_cast<unsigned long long>(cycles),
              static_cast<unsigned long long>(refCycles));
    if (refRegs != regs)
        for (std::size_t r = 0; r < regs.size(); ++r)
            if (refRegs[r] != regs[r])
                panic("PpSim oracle: register divergence in '%s': r%zu "
                      "threaded 0x%llx, reference 0x%llx", name, r,
                      static_cast<unsigned long long>(regs[r]),
                      static_cast<unsigned long long>(refRegs[r]));
    if (refSent != threadedSent)
        panic("PpSim oracle: sent-message divergence in '%s': threaded "
              "%zu messages, reference %zu", name, threadedSent.size(),
              refSent.size());
    if (!(refStats == threadedStats))
        panic("PpSim oracle: statistics divergence in '%s'", name);
    if (!replay.drained())
        panic("PpSim oracle: threaded backend issued extra memory ops "
              "in '%s'", name);

    sent.insert(sent.end(), threadedSent.begin(), threadedSent.end());
    stats.accumulate(threadedStats);
    return cycles;
}

Cycles
PpSim::runReference(const Program &prog, RegFile &regs, PpMemory &mem,
                    std::vector<SentMessage> &sent, RunStats &stats) const
{
    if (prog.pairs().empty())
        panic("PpSim: empty program '%s'", prog.name.c_str());

    Cycles cycles = 0;
    std::size_t pc = 0;
    // Registers written by loads in the previous pair: using them in the
    // current pair violates the load-delay scheduling contract.
    int prevLoadDest[2] = {-1, -1};

    while (true) {
        if (pc >= prog.pairs().size())
            panic("PpSim: pc %zu out of range in '%s'", pc,
                  prog.name.c_str());
        const InstrPair &pair = prog.pairs()[pc];

        // Static-scheduling contract checks.
        int dest_a = pair.a.destReg();
        if (dest_a > 0) {
            for (int src : pair.b.srcRegs())
                if (src == dest_a)
                    panic("PpSim: intra-pair RAW on r%d at pair %zu of "
                          "'%s'", dest_a, pc, prog.name.c_str());
            if (pair.b.destReg() == dest_a)
                panic("PpSim: intra-pair WAW on r%d at pair %zu of '%s'",
                      dest_a, pc, prog.name.c_str());
        }
        for (const Instr *in : {&pair.a, &pair.b}) {
            for (int src : in->srcRegs()) {
                if (src != 0 &&
                    (src == prevLoadDest[0] || src == prevLoadDest[1])) {
                    panic("PpSim: load-delay violation on r%d at pair %zu "
                          "of '%s'", src, pc, prog.name.c_str());
                }
            }
        }
        if (pair.a.isBranch() && pair.b.isBranch())
            panic("PpSim: two branches in pair %zu of '%s'", pc,
                  prog.name.c_str());

        Cycles stall = 0;
        SlotResult ra = execSlot(pair.a, regs, mem, sent, stall);
        SlotResult rb = execSlot(pair.b, regs, mem, sent, stall);
        // Parallel write-back (no intra-pair deps, so order is moot).
        if (ra.destReg > 0)
            regs[ra.destReg] = ra.destVal;
        if (rb.destReg > 0)
            regs[rb.destReg] = rb.destVal;
        regs[0] = 0;

        countInstr(pair.a, stats);
        countInstr(pair.b, stats);
        ++stats.pairs;
        cycles += 1 + stall;
        stats.memStall += stall;

        prevLoadDest[0] = pair.a.isLoad() ? pair.a.destReg() : -1;
        prevLoadDest[1] = pair.b.isLoad() ? pair.b.destReg() : -1;

        if (pair.a.op == Op::Halt || pair.b.op == Op::Halt)
            break;
        if (ra.branchTaken)
            pc = static_cast<std::size_t>(ra.branchTarget);
        else if (rb.branchTaken)
            pc = static_cast<std::size_t>(rb.branchTarget);
        else
            ++pc;

        if (cycles > kMaxCycles)
            panic("PpSim: runaway handler '%s'", prog.name.c_str());
    }

    stats.cycles += cycles;
    ++stats.invocations;
    return cycles;
}

} // namespace flashsim::ppisa
