/**
 * @file
 * Differential conformance between the PP engine and its reference.
 *
 * PpSim::run (the threaded-code executor, ppisa/threaded.hh) must be
 * architecturally bit-identical to PpSim::runReference, the per-slot
 * interpreter: same register/memory/message effects, same cycle charges
 * (including MDC stalls), same statistics, and the same contract
 * panics, in the same order. These tests drive every compiled protocol
 * handler program and a randomized stream of synthetic programs through
 * both and require outcome equality down to the individual memory
 * operation, plus panic-text parity for every contract violation class.
 *
 * Also covers the static micro-op profile pass (ppc/profile.hh) and the
 * structural invariants of the threaded lowering, pinning the
 * specialized-kernel coverage so the fused fast-path set cannot silently
 * rot as the handler set evolves.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ppc/profile.hh"
#include "ppisa/decode.hh"
#include "ppisa/instruction.hh"
#include "ppisa/ppsim.hh"
#include "ppisa/threaded.hh"
#include "protocol/directory.hh"
#include "protocol/pp_programs.hh"
#include "sim/random.hh"

namespace flashsim::ppisa
{
namespace
{

/**
 * PP memory with a deterministic word store, a full access trace, and a
 * deterministic per-address stall pattern (so the cycle comparison
 * covers the memory-stall accounting, not just the 1-cycle-per-pair
 * base). Two instances seeded identically and handed to the engine and
 * the reference must produce identical traces.
 */
struct TraceMemory : PpMemory
{
    struct Event
    {
        bool isStore = false;
        Addr addr = 0;
        std::uint64_t value = 0;
        Cycles extra = 0;

        bool operator==(const Event &) const = default;
    };

    std::map<Addr, std::uint64_t> words;
    std::vector<Event> log;
    bool stalls = false;

    Cycles
    stallFor(Addr a) const
    {
        return stalls ? static_cast<Cycles>((a >> 3) % 5) : 0;
    }

    std::uint64_t
    load(Addr a, Cycles &extra) override
    {
        auto it = words.find(a);
        std::uint64_t v = it == words.end() ? 0 : it->second;
        extra = stallFor(a);
        log.push_back({false, a, v, extra});
        return v;
    }

    void
    store(Addr a, std::uint64_t v, Cycles &extra) override
    {
        words[a] = v;
        extra = stallFor(a);
        log.push_back({true, a, v, extra});
    }
};

/** The two ways to run a program: the reference and the engine. */
enum class Engine
{
    Reference, ///< PpSim::runReference
    Threaded,  ///< PpSim::run
};

Cycles
runWith(Engine e, const Program &prog, RegFile &regs, PpMemory &mem,
        std::vector<SentMessage> &sent, RunStats &stats)
{
    const PpSim sim;
    return e == Engine::Reference
               ? sim.runReference(prog, regs, mem, sent, stats)
               : sim.run(prog, regs, mem, sent, stats);
}

struct Outcome
{
    Cycles cycles = 0;
    RegFile regs{};
    std::vector<SentMessage> sent;
    RunStats stats;
    std::vector<TraceMemory::Event> memLog;
    std::map<Addr, std::uint64_t> memWords;
};

Outcome
runEngine(Engine e, const Program &prog, const RegFile &regs_in,
          const std::map<Addr, std::uint64_t> &words_in, bool stalls)
{
    Outcome o;
    o.regs = regs_in;
    TraceMemory mem;
    mem.words = words_in;
    mem.stalls = stalls;
    o.cycles = runWith(e, prog, o.regs, mem, o.sent, o.stats);
    o.memLog = std::move(mem.log);
    o.memWords = std::move(mem.words);
    return o;
}

void
expectEngineMatchesReference(const Program &prog, const RegFile &regs_in,
                             const std::map<Addr, std::uint64_t> &words_in,
                             bool stalls, const std::string &what)
{
    Outcome r = runEngine(Engine::Reference, prog, regs_in, words_in, stalls);
    Outcome t = runEngine(Engine::Threaded, prog, regs_in, words_in, stalls);
    EXPECT_EQ(r.cycles, t.cycles) << what;
    EXPECT_EQ(r.regs, t.regs) << what;
    EXPECT_EQ(r.sent, t.sent) << what;
    EXPECT_TRUE(r.stats == t.stats) << what;
    EXPECT_EQ(r.memLog, t.memLog) << what << " (memory access trace)";
    EXPECT_EQ(r.memWords, t.memWords) << what << " (final memory image)";
}

// ---------------------------------------------------------------------
// Fuzz 1: every compiled handler program over randomized directory
// states and message fields.
// ---------------------------------------------------------------------

constexpr NodeId kSelf = 0;
constexpr int kNodes = 4;

/** PP memory adapter over a DirectoryStore, with the same trace. */
struct TraceDirMem : PpMemory
{
    protocol::DirectoryStore &d;
    std::vector<TraceMemory::Event> log;

    explicit TraceDirMem(protocol::DirectoryStore &dd) : d(dd) {}

    std::uint64_t
    load(Addr a, Cycles &extra) override
    {
        std::uint64_t v = d.loadWord(a);
        extra = static_cast<Cycles>((a >> 3) % 5);
        log.push_back({false, a, v, extra});
        return v;
    }

    void
    store(Addr a, std::uint64_t v, Cycles &extra) override
    {
        extra = static_cast<Cycles>((a >> 3) % 5);
        d.storeWord(a, v);
        log.push_back({true, a, v, extra});
    }
};

/**
 * Apply a random but structurally valid directory pre-state. Takes the
 * Rng by value so the two stores can be prepared from identical draw
 * sequences.
 */
void
applyRandomState(protocol::DirectoryStore &dir, Addr line, Rng rng)
{
    // Thread the free list (as the C++/PP conformance sweep does) so
    // link words exist wherever a handler walks.
    constexpr Addr scratch = 0x40000;
    for (int i = 0; i < 12; ++i)
        dir.addSharer(scratch, static_cast<NodeId>(i));
    for (int i = 0; i < 12; ++i)
        dir.removeSharer(scratch, static_cast<NodeId>(i));

    if (rng.below(3) == 0) {
        protocol::DirHeader h = dir.header(line);
        h.dirty = true;
        h.owner = static_cast<NodeId>(rng.below(kNodes));
        dir.setHeader(line, h);
        return;
    }
    // Clean with a random subset of distinct sharers.
    NodeId order[kNodes] = {0, 1, 2, 3};
    for (int i = kNodes - 1; i > 0; --i)
        std::swap(order[i],
                  order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
    const int nsharers = static_cast<int>(rng.below(kNodes + 1));
    for (int i = 0; i < nsharers; ++i)
        dir.addSharer(line, order[i]);
}

struct DirOutcome
{
    Cycles cycles = 0;
    RegFile regs{};
    std::vector<SentMessage> sent;
    RunStats stats;
    std::vector<TraceMemory::Event> memLog;
};

DirOutcome
runHandlerCase(Engine e, const Program &prog,
               const protocol::Message &msg, NodeId home, bool cache_dirty,
               std::uint64_t state_seed, protocol::DirectoryStore &dir)
{
    applyRandomState(dir, msg.addr, Rng(state_seed));
    DirOutcome o;
    o.regs = protocol::makeHandlerRegs(msg, kSelf, home, cache_dirty);
    TraceDirMem mem(dir);
    o.cycles = runWith(e, prog, o.regs, mem, o.sent, o.stats);
    o.memLog = std::move(mem.log);
    return o;
}

TEST(BackendDiff, HandlerFuzzAllProgramsAllOptions)
{
    const ppc::CompileOptions option_sets[] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    for (const ppc::CompileOptions &opts : option_sets) {
        protocol::HandlerPrograms programs =
            protocol::buildHandlerPrograms(opts);
        Rng rng(0x9d5c0fb1u ^
                (static_cast<std::uint64_t>(opts.useSpecialInstrs) << 1) ^
                static_cast<std::uint64_t>(opts.dualIssue));
        for (int t = 0; t < protocol::kNumMsgTypes; ++t) {
            const auto type = static_cast<protocol::MsgType>(t);
            for (int at_home = 0; at_home < 2; ++at_home) {
                const Program *prog =
                    programs.forMessageOrNull(type, at_home != 0);
                if (prog == nullptr)
                    continue;
                for (int iter = 0; iter < 8; ++iter) {
                    protocol::Message m;
                    m.type = type;
                    m.src = static_cast<NodeId>(rng.below(kNodes));
                    m.dest = kSelf;
                    m.requester =
                        static_cast<NodeId>(rng.below(kNodes));
                    m.addr = rng.below(64) << 6; // line-aligned
                    m.aux = static_cast<std::uint32_t>(rng.below(8));
                    const NodeId home =
                        at_home != 0
                            ? kSelf
                            : static_cast<NodeId>(
                                  1 + rng.below(kNodes - 1));
                    const bool cache_dirty = rng.below(2) != 0;
                    const std::uint64_t state_seed = rng.next();

                    protocol::DirectoryStore dirR, dirT;
                    DirOutcome r = runHandlerCase(
                        Engine::Reference, *prog, m, home, cache_dirty,
                        state_seed, dirR);
                    DirOutcome th = runHandlerCase(
                        Engine::Threaded, *prog, m, home, cache_dirty,
                        state_seed, dirT);

                    const std::string what =
                        prog->name + " iter " + std::to_string(iter);
                    EXPECT_EQ(r.cycles, th.cycles) << what;
                    EXPECT_EQ(r.regs, th.regs) << what;
                    EXPECT_EQ(r.sent, th.sent) << what;
                    EXPECT_TRUE(r.stats == th.stats) << what;
                    EXPECT_EQ(r.memLog, th.memLog) << what;
                    EXPECT_EQ(dirT.sharers(m.addr), dirR.sharers(m.addr))
                        << what;
                    protocol::DirHeader hr = dirR.header(m.addr);
                    protocol::DirHeader ht = dirT.header(m.addr);
                    EXPECT_EQ(ht.dirty, hr.dirty) << what;
                    EXPECT_EQ(ht.owner, hr.owner) << what;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fuzz 2: randomized synthetic programs covering the whole opcode set
// (single-issue kernels, branches, sends, memory traffic, stalls).
// ---------------------------------------------------------------------

Instr
randomInstr(Rng &rng, int index, int total)
{
    Instr in;
    // Weighted opcode menu: every executable opcode appears, memory and
    // special ops often enough to matter.
    static const Op menu[] = {
        Op::Add,  Op::Sub,  Op::And,  Op::Or,   Op::Xor,  Op::Sllv,
        Op::Srlv, Op::Slt,  Op::Sltu, Op::Addi, Op::Andi, Op::Ori,
        Op::Xori, Op::Slli, Op::Srli, Op::Srai, Op::Slti, Op::Ld,
        Op::Ld,   Op::Sd,   Op::Sd,   Op::Beq,  Op::Bne,  Op::J,
        Op::Ffs,  Op::Bbs,  Op::Bbc,  Op::Ext,  Op::Ins,  Op::Orfi,
        Op::Andfi, Op::Send, Op::Send};
    in.op = menu[rng.below(sizeof(menu) / sizeof(menu[0]))];
    in.rd = static_cast<std::uint8_t>(rng.below(8));
    in.rs = static_cast<std::uint8_t>(rng.below(8));
    in.rt = static_cast<std::uint8_t>(rng.below(8));
    in.lo = static_cast<std::uint8_t>(rng.below(56));
    in.width = static_cast<std::uint8_t>(1 + rng.below(8));
    switch (in.op) {
      case Op::Ld:
      case Op::Sd:
        in.imm = static_cast<std::int64_t>(rng.below(32)) * 8;
        break;
      case Op::Beq:
      case Op::Bne:
      case Op::J:
      case Op::Bbs:
      case Op::Bbc:
        // Forward-only targets keep every random program terminating;
        // target == total branches to the final Halt pair.
        in.imm = static_cast<std::int64_t>(
            index + 1 +
            rng.below(static_cast<std::uint64_t>(total - index)));
        break;
      case Op::Send:
        in.imm = static_cast<std::int64_t>(rng.below(26));
        break;
      default:
        in.imm = static_cast<std::int64_t>(rng.below(4096)) - 2048;
        break;
    }
    return in;
}

Program
makeRandomProgram(Rng &rng, int id)
{
    Program prog;
    prog.name = "fuzz" + std::to_string(id);
    const int n = 8 + static_cast<int>(rng.below(24));
    std::vector<Instr> instrs;
    instrs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        instrs.push_back(randomInstr(rng, i, n));
    // Runner-style lowering: one instruction per pair with a NOP pair in
    // between, so the load-delay and intra-pair contracts hold by
    // construction; branch targets scale from instruction to pair index.
    for (Instr &in : instrs) {
        if (in.isBranch())
            in.imm *= 2;
        prog.mutablePairs().push_back(InstrPair{in, Instr{}});
        prog.mutablePairs().push_back(InstrPair{Instr{}, Instr{}});
    }
    Instr halt;
    halt.op = Op::Halt;
    prog.mutablePairs().push_back(InstrPair{halt, Instr{}});
    return prog;
}

TEST(BackendDiff, RandomProgramFuzz)
{
    Rng rng(0xfe315ull);
    for (int p = 0; p < 150; ++p) {
        Program prog = makeRandomProgram(rng, p);
        RegFile regs{};
        for (int r = 1; r < 8; ++r)
            regs[static_cast<std::size_t>(r)] = rng.below(32) * 8;
        std::map<Addr, std::uint64_t> words;
        for (Addr a = 0; a < 512; a += 8)
            words[a] = rng.next();
        expectEngineMatchesReference(prog, regs, words, true, prog.name);
    }
}

// ---------------------------------------------------------------------
// Contract-panic parity: engine and reference must fail the same way,
// with the same message, for every violation class — and must stay
// silent for violations that are never dynamically reached (lazy
// checking).
// ---------------------------------------------------------------------

Instr
mk(Op op, int rd, int rs, int rt, std::int64_t imm = 0)
{
    Instr in;
    in.op = op;
    in.rd = static_cast<std::uint8_t>(rd);
    in.rs = static_cast<std::uint8_t>(rs);
    in.rt = static_cast<std::uint8_t>(rt);
    in.imm = imm;
    return in;
}

Program
progOf(std::vector<InstrPair> pairs, const char *name)
{
    Program p;
    p.name = name;
    p.mutablePairs() = std::move(pairs);
    return p;
}

void
runOn(Engine e, const Program &prog)
{
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    runWith(e, prog, regs, mem, sent, stats);
}

class BackendPanicParity : public ::testing::TestWithParam<Engine>
{};

TEST_P(BackendPanicParity, IntraPairRaw)
{
    Program p = progOf({{mk(Op::Addi, 3, 1, 0, 5), mk(Op::Add, 4, 3, 1)}},
                       "raw");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "intra-pair RAW on r3 at pair 0 of 'raw'");
}

TEST_P(BackendPanicParity, IntraPairWaw)
{
    Program p = progOf({{mk(Op::Addi, 3, 1, 0, 5), mk(Op::Addi, 3, 2, 0, 7)}},
                       "waw");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "intra-pair WAW on r3 at pair 0 of 'waw'");
}

TEST_P(BackendPanicParity, TwoBranches)
{
    Program p = progOf(
        {{mk(Op::Beq, 0, 1, 2, 1), mk(Op::Bne, 0, 1, 2, 1)},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "twobr");
    EXPECT_DEATH(runOn(GetParam(), p), "two branches in pair 0 of 'twobr'");
}

TEST_P(BackendPanicParity, LoadDelayViolation)
{
    Program p = progOf(
        {{mk(Op::Ld, 3, 1, 0, 0), Instr{}},
         {mk(Op::Addi, 4, 3, 0, 1), Instr{}},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "lddelay");
    EXPECT_DEATH(runOn(GetParam(), p),
                 "load-delay violation on r3 at pair 1 of 'lddelay'");
}

TEST_P(BackendPanicParity, FallOffEnd)
{
    Program p =
        progOf({{mk(Op::Addi, 1, 0, 0, 1), Instr{}}}, "falloff");
    EXPECT_DEATH(runOn(GetParam(), p), "pc 1 out of range in 'falloff'");
}

TEST_P(BackendPanicParity, BranchOnePastEnd)
{
    // A branch target of npairs is legal to encode (falls off the end);
    // both raise the out-of-range panic when it is taken.
    Program p = progOf(
        {{mk(Op::J, 0, 0, 0, 2), Instr{}},
         {mk(Op::Halt, 0, 0, 0), Instr{}}},
        "pastend");
    EXPECT_DEATH(runOn(GetParam(), p), "pc 2 out of range in 'pastend'");
}

TEST_P(BackendPanicParity, RunawayHandler)
{
    Program p = progOf({{mk(Op::J, 0, 0, 0, 0), Instr{}}}, "spin");
    EXPECT_DEATH(runOn(GetParam(), p), "runaway handler 'spin'");
}

TEST_P(BackendPanicParity, EmptyProgram)
{
    Program p;
    p.name = "empty";
    EXPECT_DEATH(runOn(GetParam(), p), "empty program 'empty'");
}

TEST_P(BackendPanicParity, UnreachedViolationStaysSilent)
{
    // Lazy contract checking: a violating pair after the Halt is never
    // reached, so neither may panic over it.
    Program p = progOf(
        {{mk(Op::Halt, 0, 0, 0), Instr{}},
         {mk(Op::Addi, 3, 1, 0, 5), mk(Op::Add, 4, 3, 1)}},
        "silent");
    runOn(GetParam(), p); // must not die
}

// runReference is the per-slot interpreter, hence its suffix.
INSTANTIATE_TEST_SUITE_P(
    Backends, BackendPanicParity,
    ::testing::Values(Engine::Reference, Engine::Threaded),
    [](const ::testing::TestParamInfo<Engine> &info) {
        return std::string(info.param == Engine::Reference ? "interpreter"
                                                           : "threaded");
    });

// ---------------------------------------------------------------------
// Structure of the threaded lowering over the production handler set.
// ---------------------------------------------------------------------

TEST(ThreadedLowering, HandlerSetStructureAndCoverage)
{
    protocol::HandlerPrograms programs =
        protocol::buildHandlerPrograms({true, true});
    double frac_sum = 0;
    int n = 0;
    for (const Program *p : programs.all()) {
        const ThreadedProgram &t = p->decoded().threaded();
        ASSERT_EQ(t.ops().size(), p->pairs().size() + 1) << p->name;
        ASSERT_EQ(t.size(), p->pairs().size()) << p->name;
        EXPECT_EQ(t.ops().back().kernel, ThreadedKernel::OutOfRange)
            << p->name;
        for (const ThreadedOp &op : t.ops()) {
            // The compiled handlers honour the scheduling contract, so
            // no pair may carry a violation verdict or need the dynamic
            // load-delay check.
            EXPECT_NE(op.kernel, ThreadedKernel::Violation) << p->name;
            EXPECT_FALSE(op.checkLoadDelay) << p->name;
        }
        frac_sum += t.specializedFraction();
        ++n;
    }
    ASSERT_GT(n, 0);
    // Fused + per-opcode kernels must keep covering nearly all of the
    // handler set; a drop means new scheduler output is falling back to
    // the Generic kernel and the fused set needs to catch up.
    EXPECT_GE(frac_sum / n, 0.90);
}

TEST(ThreadedLowering, SingleIssueSetFullySpecialized)
{
    protocol::HandlerPrograms programs =
        protocol::buildHandlerPrograms({true, false});
    for (const Program *p : programs.all())
        EXPECT_DOUBLE_EQ(p->decoded().threaded().specializedFraction(),
                         1.0)
            << p->name;
}

// ---------------------------------------------------------------------
// Static micro-op profile pass.
// ---------------------------------------------------------------------

TEST(MicroOpProfile, HandlerSetHotPairsDriveFusedKernels)
{
    protocol::HandlerPrograms programs =
        protocol::buildHandlerPrograms({true, true});
    ppc::MicroOpProfile prof = ppc::profilePrograms(programs.all());
    EXPECT_GT(prof.totalPairs(), 0u);
    EXPECT_GT(prof.opCount(Op::Send), 0u);
    EXPECT_GT(prof.opCount(Op::Ld), 0u);

    std::vector<ppc::PairFreq> hot = prof.hottestDual(10);
    ASSERT_GE(hot.size(), 5u);
    for (std::size_t i = 1; i < hot.size(); ++i)
        EXPECT_GE(hot[i - 1].count, hot[i].count);
    // The profile's top dual pair motivated the FuseLdAddi kernel; if
    // the handler set shifts enough to change it, the fused kernel set
    // in threaded.hh should be revisited.
    EXPECT_EQ(hot[0].a, Op::Ld);
    EXPECT_EQ(hot[0].b, Op::Addi);
    EXPECT_EQ(prof.pairCount(hot[0].a, hot[0].b), hot[0].count);

    // Every hot dual pair must map to a non-Generic kernel wherever it
    // appears in the lowered handler set (modulo pairs the lowering
    // legitimately bails on, which the coverage test above bounds).
    for (const Program *p : programs.all()) {
        const ThreadedProgram &t = p->decoded().threaded();
        const auto &pairs = p->pairs();
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            if (pairs[i].a.op == Op::Ld && pairs[i].b.op == Op::Addi) {
                EXPECT_EQ(t.ops()[i].kernel, ThreadedKernel::FuseLdAddi)
                    << p->name << " pair " << i;
            }
        }
    }
}

TEST(MicroOpProfile, CountsAreExactOnAKnownProgram)
{
    Program prog;
    prog.name = "counted";
    prog.mutablePairs().push_back(
        InstrPair{mk(Op::Ld, 3, 1, 0, 0), mk(Op::Addi, 4, 2, 0, 1)});
    prog.mutablePairs().push_back(InstrPair{Instr{}, Instr{}});
    prog.mutablePairs().push_back(
        InstrPair{mk(Op::Ld, 5, 1, 0, 8), mk(Op::Addi, 6, 2, 0, 2)});
    prog.mutablePairs().push_back(
        InstrPair{mk(Op::Halt, 0, 0, 0), Instr{}});

    ppc::MicroOpProfile prof;
    prof.addProgram(prog);
    EXPECT_EQ(prof.totalPairs(), 4u);
    EXPECT_EQ(prof.pairCount(Op::Ld, Op::Addi), 2u);
    EXPECT_EQ(prof.opCount(Op::Ld), 2u);
    EXPECT_EQ(prof.opCount(Op::Addi), 2u);
    EXPECT_EQ(prof.opCount(Op::Halt), 1u);
    EXPECT_EQ(prof.pairCount(Op::Nop, Op::Nop), 1u);

    std::vector<ppc::PairFreq> hot = prof.hottest(2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0].a, Op::Ld);
    EXPECT_EQ(hot[0].b, Op::Addi);
    EXPECT_EQ(hot[0].count, 2u);
    // Nop/Nop padding is excluded from the fusion candidates.
    EXPECT_FALSE(hot[1].a == Op::Nop && hot[1].b == Op::Nop);

    std::vector<ppc::PairFreq> dual = prof.hottestDual(4);
    ASSERT_EQ(dual.size(), 1u); // only (Ld, Addi) is genuinely dual
}

} // namespace
} // namespace flashsim::ppisa
