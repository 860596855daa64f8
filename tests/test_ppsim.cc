/** @file Unit tests for the PP instruction set emulator (PPsim). */

#include <gtest/gtest.h>

#include <utility>

#include "ppisa/decode.hh"
#include "ppisa/instruction.hh"
#include "ppisa/ppsim.hh"
#include "ppisa/threaded.hh"

namespace flashsim::ppisa
{
namespace
{

Instr
rri(Op op, int rd, int rs, std::int64_t imm)
{
    Instr in;
    in.op = op;
    in.rd = static_cast<std::uint8_t>(rd);
    in.rs = static_cast<std::uint8_t>(rs);
    in.imm = imm;
    return in;
}

Instr
rrr(Op op, int rd, int rs, int rt)
{
    Instr in;
    in.op = op;
    in.rd = static_cast<std::uint8_t>(rd);
    in.rs = static_cast<std::uint8_t>(rs);
    in.rt = static_cast<std::uint8_t>(rt);
    return in;
}

Instr
field(Op op, int rd, int rs, unsigned lo, unsigned width)
{
    Instr in;
    in.op = op;
    in.rd = static_cast<std::uint8_t>(rd);
    in.rs = static_cast<std::uint8_t>(rs);
    in.lo = static_cast<std::uint8_t>(lo);
    in.width = static_cast<std::uint8_t>(width);
    return in;
}

Instr
halt()
{
    Instr in;
    in.op = Op::Halt;
    return in;
}

Instr
nop()
{
    return Instr{};
}

/** Run a single-issue program (each instruction in its own pair). */
struct Runner
{
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;

    Cycles
    run(std::vector<Instr> instrs)
    {
        Program prog;
        prog.name = "test";
        // A NOP pair between consecutive instructions keeps load-delay
        // and pairing rules trivially satisfied for semantic tests.
        for (const Instr &i : instrs) {
            prog.mutablePairs().push_back(InstrPair{i, nop()});
            prog.mutablePairs().push_back(InstrPair{nop(), nop()});
        }
        // Rewrite branch targets (instruction index -> pair index).
        for (auto &p : prog.mutablePairs()) {
            if (p.a.isBranch())
                p.a.imm *= 2;
        }
        prog.mutablePairs().push_back(InstrPair{halt(), nop()});
        PpSim sim;
        return sim.run(prog, regs, mem, sent, stats);
    }
};

TEST(PpSim, AluBasics)
{
    Runner r;
    r.regs[1] = 7;
    r.regs[2] = 5;
    r.run({rrr(Op::Add, 3, 1, 2), rrr(Op::Sub, 4, 1, 2),
           rrr(Op::And, 5, 1, 2), rrr(Op::Or, 6, 1, 2),
           rrr(Op::Xor, 7, 1, 2)});
    EXPECT_EQ(r.regs[3], 12u);
    EXPECT_EQ(r.regs[4], 2u);
    EXPECT_EQ(r.regs[5], 5u);
    EXPECT_EQ(r.regs[6], 7u);
    EXPECT_EQ(r.regs[7], 2u);
}

TEST(PpSim, Immediates)
{
    Runner r;
    r.regs[1] = 0xf0;
    r.run({rri(Op::Addi, 2, 1, 0x10), rri(Op::Andi, 3, 1, 0x30),
           rri(Op::Ori, 4, 1, 0x0f), rri(Op::Xori, 5, 1, -1),
           rri(Op::Slli, 6, 1, 4), rri(Op::Srli, 7, 1, 4)});
    EXPECT_EQ(r.regs[2], 0x100u);
    EXPECT_EQ(r.regs[3], 0x30u);
    EXPECT_EQ(r.regs[4], 0xffu);
    EXPECT_EQ(r.regs[5], ~std::uint64_t{0xf0});
    EXPECT_EQ(r.regs[6], 0xf00u);
    EXPECT_EQ(r.regs[7], 0xfu);
}

TEST(PpSim, SignedOps)
{
    Runner r;
    r.regs[1] = static_cast<std::uint64_t>(-8);
    r.run({rri(Op::Srai, 2, 1, 2), rri(Op::Slti, 3, 1, 0),
           rri(Op::Slti, 4, 1, -10)});
    EXPECT_EQ(static_cast<std::int64_t>(r.regs[2]), -2);
    EXPECT_EQ(r.regs[3], 1u);
    EXPECT_EQ(r.regs[4], 0u);
}

TEST(PpSim, R0IsHardZero)
{
    Runner r;
    r.run({rri(Op::Addi, 0, 0, 99), rri(Op::Addi, 1, 0, 3)});
    EXPECT_EQ(r.regs[0], 0u);
    EXPECT_EQ(r.regs[1], 3u);
}

TEST(PpSim, LoadStore)
{
    Runner r;
    r.regs[1] = 0x1000;
    r.regs[2] = 0xdeadbeef;
    r.run({rri(Op::Sd, 0, 1, 8), rri(Op::Ld, 3, 1, 8)});
    // Sd encodes value in rt; build explicitly:
    Runner r2;
    r2.regs[1] = 0x1000;
    r2.regs[2] = 0xdeadbeef;
    Instr sd;
    sd.op = Op::Sd;
    sd.rs = 1;
    sd.rt = 2;
    sd.imm = 8;
    r2.run({sd, rri(Op::Ld, 3, 1, 8)});
    EXPECT_EQ(r2.regs[3], 0xdeadbeefu);
}

TEST(PpSim, FindFirstSet)
{
    Runner r;
    r.regs[1] = 0x80;
    r.regs[2] = 0;
    r.regs[3] = 1;
    r.run({rri(Op::Ffs, 4, 1, 0), rri(Op::Ffs, 5, 2, 0),
           rri(Op::Ffs, 6, 3, 0)});
    EXPECT_EQ(r.regs[4], 7u);
    EXPECT_EQ(r.regs[5], 64u); // all-zero convention
    EXPECT_EQ(r.regs[6], 0u);
}

TEST(PpSim, BitfieldExtractInsert)
{
    Runner r;
    r.regs[1] = 0xabcd1234u;
    r.regs[2] = 0x7;
    r.regs[3] = 0xffffffffffffffffu;
    r.run({field(Op::Ext, 4, 1, 8, 8), field(Op::Orfi, 5, 1, 32, 4),
           field(Op::Andfi, 6, 3, 16, 16)});
    EXPECT_EQ(r.regs[4], 0x12u);
    EXPECT_EQ(r.regs[5], 0xfabcd1234u);
    EXPECT_EQ(r.regs[6], 0xffffffff0000ffffu);

    Runner r2;
    r2.regs[1] = 0; // target of Ins
    r2.regs[2] = 0x5;
    Instr ins = field(Op::Ins, 1, 2, 16, 4);
    r2.run({ins});
    EXPECT_EQ(r2.regs[1], 0x50000u);
}

TEST(PpSim, BranchOnBit)
{
    // bbs r1[3] -> skip the addi
    Instr b;
    b.op = Op::Bbs;
    b.rs = 1;
    b.lo = 3;
    b.imm = 2; // instruction index (Runner doubles it)
    Runner r;
    r.regs[1] = 0x8;
    r.run({b, rri(Op::Addi, 2, 0, 1), rri(Op::Addi, 3, 0, 1)});
    EXPECT_EQ(r.regs[2], 0u); // skipped
    EXPECT_EQ(r.regs[3], 1u);

    Runner r2;
    r2.regs[1] = 0; // bit clear: fall through
    r2.run({b, rri(Op::Addi, 2, 0, 1), rri(Op::Addi, 3, 0, 1)});
    EXPECT_EQ(r2.regs[2], 1u);
}

TEST(PpSim, SendProducesMessages)
{
    Instr s;
    s.op = Op::Send;
    s.rs = 1; // dest
    s.rt = 2; // arg
    s.imm = 12;
    Runner r;
    r.regs[1] = 3;
    r.regs[2] = 0xabc;
    r.run({s, s});
    ASSERT_EQ(r.sent.size(), 2u);
    EXPECT_EQ(r.sent[0].type, 12);
    EXPECT_EQ(r.sent[0].dest, 3u);
    EXPECT_EQ(r.sent[0].arg, 0xabcu);
}

TEST(PpSim, StatsCountPairsAndInstrs)
{
    Runner r;
    r.regs[1] = 1;
    r.run({rrr(Op::Add, 2, 1, 1), field(Op::Ext, 3, 1, 0, 1)});
    // 2 real instrs + 2 padding pairs + halt pair = 5 pairs
    EXPECT_EQ(r.stats.pairs, 5u);
    EXPECT_EQ(r.stats.instrs, 3u); // add, ext, halt is non-NOP
    EXPECT_EQ(r.stats.specials, 1u);
    EXPECT_EQ(r.stats.invocations, 1u);
    EXPECT_GT(r.stats.dualIssueEfficiency(), 0.0);
}

TEST(PpSim, IntraPairRawPanics)
{
    Program prog;
    prog.name = "bad";
    InstrPair p;
    p.a = rri(Op::Addi, 1, 0, 5);
    p.b = rrr(Op::Add, 2, 1, 1); // reads r1 written by slot a
    prog.mutablePairs().push_back(p);
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});
    PpSim sim;
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    EXPECT_DEATH(sim.run(prog, regs, mem, sent, stats), "intra-pair");
}

TEST(PpSim, LoadDelayViolationPanics)
{
    Program prog;
    prog.name = "bad2";
    prog.mutablePairs().push_back(InstrPair{rri(Op::Ld, 1, 0, 0), nop()});
    prog.mutablePairs().push_back(InstrPair{rrr(Op::Add, 2, 1, 1), nop()});
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});
    PpSim sim;
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    EXPECT_DEATH(sim.run(prog, regs, mem, sent, stats), "load-delay");
}

TEST(PpSim, MemoryStallsAccumulate)
{
    struct SlowMem : PpMemory
    {
        std::uint64_t
        load(Addr, Cycles &extra) override
        {
            extra = 29;
            return 0;
        }
        void
        store(Addr, std::uint64_t, Cycles &extra) override
        {
            extra = 29;
        }
    };
    Program prog;
    prog.name = "slow";
    prog.mutablePairs().push_back(InstrPair{rri(Op::Ld, 1, 0, 0), nop()});
    prog.mutablePairs().push_back(InstrPair{nop(), nop()});
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});
    PpSim sim;
    RegFile regs{};
    SlowMem mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    Cycles c = sim.run(prog, regs, mem, sent, stats);
    EXPECT_EQ(c, 3u + 29u);
    EXPECT_EQ(stats.memStall, 29u);
}

TEST(PpSim, FieldMaskHelper)
{
    EXPECT_EQ(fieldMask(0, 4), 0xfu);
    EXPECT_EQ(fieldMask(4, 4), 0xf0u);
    EXPECT_EQ(fieldMask(0, 64), ~std::uint64_t{0});
    EXPECT_EQ(fieldMask(63, 1), std::uint64_t{1} << 63);
}

TEST(PpSim, ProgramToStringContainsName)
{
    Program prog;
    prog.name = "pi_get";
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});
    EXPECT_NE(prog.toString().find("pi_get"), std::string::npos);
    EXPECT_EQ(prog.codeBytes(), 8u);
}

TEST(PpSim, TwoBranchesInPairPanics)
{
    Program prog;
    prog.name = "bad3";
    InstrPair p;
    p.a = rrr(Op::Beq, 0, 0, 0);
    p.b = rrr(Op::Bne, 0, 0, 0);
    p.a.imm = 1;
    p.b.imm = 1;
    prog.mutablePairs().push_back(p);
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});
    PpSim sim;
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    EXPECT_DEATH(sim.run(prog, regs, mem, sent, stats), "two branches");
}

// ---------------------------------------------------------------------------
// Decode-cache conformance: the decoded fast path must be architecturally
// indistinguishable from the reference per-issue interpreter.

Instr
br(Op op, int rs, int rt, std::int64_t target)
{
    Instr in;
    in.op = op;
    in.rs = static_cast<std::uint8_t>(rs);
    in.rt = static_cast<std::uint8_t>(rt);
    in.imm = target;
    return in;
}

Instr
bbit(Op op, int rs, unsigned bit, std::int64_t target)
{
    Instr in;
    in.op = op;
    in.rs = static_cast<std::uint8_t>(rs);
    in.lo = static_cast<std::uint8_t>(bit);
    in.imm = target;
    return in;
}

Instr
send(int type, int rs, int rt)
{
    Instr in;
    in.op = Op::Send;
    in.rs = static_cast<std::uint8_t>(rs);
    in.rt = static_cast<std::uint8_t>(rt);
    in.imm = type;
    return in;
}

/** Everything architecturally observable from one handler run. */
struct RunOutcome
{
    RegFile regs{};
    std::vector<std::pair<Addr, std::uint64_t>> mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    Cycles cycles = 0;
};

RunOutcome
execute(const Program &prog, const RegFile &init, bool reference)
{
    RunOutcome o;
    o.regs = init;
    FlatPpMemory mem;
    mem.poke(0x100, 0xdeadbeef);
    PpSim sim;
    o.cycles = reference
                   ? sim.runReference(prog, o.regs, mem, o.sent, o.stats)
                   : sim.run(prog, o.regs, mem, o.sent, o.stats);
    for (Addr a : {Addr{0x100}, Addr{0x108}, Addr{0xff0}, Addr{0xff8}})
        o.mem.emplace_back(a, mem.peek(a));
    return o;
}

void
expectSameOutcome(const Program &prog, const RegFile &init)
{
    RunOutcome fast = execute(prog, init, /*reference=*/false);
    RunOutcome ref = execute(prog, init, /*reference=*/true);
    EXPECT_EQ(fast.regs, ref.regs);
    EXPECT_EQ(fast.mem, ref.mem);
    EXPECT_EQ(fast.sent, ref.sent);
    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.stats.cycles, ref.stats.cycles);
    EXPECT_EQ(fast.stats.pairs, ref.stats.pairs);
    EXPECT_EQ(fast.stats.instrs, ref.stats.instrs);
    EXPECT_EQ(fast.stats.specials, ref.stats.specials);
    EXPECT_EQ(fast.stats.aluBranch, ref.stats.aluBranch);
    EXPECT_EQ(fast.stats.memStall, ref.stats.memStall);
    EXPECT_EQ(fast.stats.invocations, ref.stats.invocations);
}

TEST(PpDecode, MatchesReferenceOnEveryOpcode)
{
    // One program exercising all 31 opcodes (taken and not-taken forms
    // of every branch), single-issue with NOP spacer pairs so pairing
    // rules hold trivially. Branch targets are instruction indices,
    // rewritten to pair indices below.
    std::vector<Instr> body = {
        /* 0*/ rri(Op::Addi, 1, 0, 0x1234),
        /* 1*/ rri(Op::Addi, 2, 0, 0x0ff0),
        /* 2*/ rrr(Op::Add, 3, 1, 2),
        /* 3*/ rrr(Op::Sub, 4, 1, 2),
        /* 4*/ rrr(Op::And, 5, 1, 2),
        /* 5*/ rrr(Op::Or, 6, 1, 2),
        /* 6*/ rrr(Op::Xor, 7, 1, 2),
        /* 7*/ rri(Op::Addi, 8, 0, 3),
        /* 8*/ rrr(Op::Sllv, 9, 1, 8),
        /* 9*/ rrr(Op::Srlv, 10, 1, 8),
        /*10*/ rrr(Op::Slt, 11, 1, 2),
        /*11*/ rrr(Op::Sltu, 12, 2, 1),
        /*12*/ rri(Op::Andi, 13, 1, 0xff),
        /*13*/ rri(Op::Ori, 14, 1, 0xf000),
        /*14*/ rri(Op::Xori, 15, 1, 0xffff),
        /*15*/ rri(Op::Slli, 16, 1, 5),
        /*16*/ rri(Op::Srli, 17, 1, 5),
        /*17*/ rri(Op::Addi, 19, 0, -64),
        /*18*/ rri(Op::Srai, 18, 19, 3),
        /*19*/ rri(Op::Slti, 20, 19, 0),
        /*20*/ rrr(Op::Sd, 0, 2, 1),
        /*21*/ rri(Op::Ld, 21, 2, 0),
        /*22*/ rrr(Op::Ffs, 22, 2, 0),
        /*23*/ field(Op::Ext, 23, 1, 4, 8),
        /*24*/ field(Op::Ins, 5, 1, 8, 4),
        /*25*/ field(Op::Orfi, 24, 1, 16, 4),
        /*26*/ field(Op::Andfi, 25, 1, 4, 4),
        /*27*/ br(Op::Beq, 1, 1, 29), // taken
        /*28*/ rri(Op::Addi, 26, 0, 999),
        /*29*/ br(Op::Bne, 1, 2, 31), // taken
        /*30*/ rri(Op::Addi, 27, 0, 888),
        /*31*/ bbit(Op::Bbs, 2, 4, 33), // 0xff0 bit 4 set: taken
        /*32*/ rri(Op::Addi, 28, 0, 777),
        /*33*/ bbit(Op::Bbc, 2, 0, 35), // bit 0 clear: taken
        /*34*/ rri(Op::Addi, 29, 0, 666),
        /*35*/ br(Op::Beq, 1, 2, 0),  // not taken
        /*36*/ br(Op::Bne, 1, 1, 0),  // not taken
        /*37*/ bbit(Op::Bbs, 2, 0, 0), // not taken
        /*38*/ bbit(Op::Bbc, 2, 4, 0), // not taken
        /*39*/ send(5, 8, 1),
        /*40*/ br(Op::J, 0, 0, 42),
        /*41*/ rri(Op::Addi, 30, 0, 555),
    };

    Program prog;
    prog.name = "all_ops";
    for (const Instr &i : body) {
        prog.mutablePairs().push_back(InstrPair{i, nop()});
        prog.mutablePairs().push_back(InstrPair{nop(), nop()});
    }
    for (auto &p : prog.mutablePairs())
        if (p.a.isBranch())
            p.a.imm *= 2;
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});

    // Guard: the program really does cover the whole ISA.
    bool seen[32] = {};
    for (const auto &p : prog.pairs()) {
        seen[static_cast<int>(p.a.op)] = true;
        seen[static_cast<int>(p.b.op)] = true;
    }
    for (Op op :
         {Op::Nop, Op::Add, Op::Sub, Op::And, Op::Or, Op::Xor, Op::Sllv,
          Op::Srlv, Op::Slt, Op::Sltu, Op::Addi, Op::Andi, Op::Ori,
          Op::Xori, Op::Slli, Op::Srli, Op::Srai, Op::Slti, Op::Ld,
          Op::Sd, Op::Beq, Op::Bne, Op::J, Op::Halt, Op::Ffs, Op::Bbs,
          Op::Bbc, Op::Ext, Op::Ins, Op::Orfi, Op::Andfi, Op::Send})
        EXPECT_TRUE(seen[static_cast<int>(op)]) << opName(op);

    expectSameOutcome(prog, RegFile{});
}

TEST(PpDecode, MatchesReferenceOnDualIssuePairsAndLoops)
{
    // Real dual-issue pairs with a backward branch (loop) and a load
    // shadowed by the mandatory delay pair — the shapes the scheduler
    // emits — must agree across both paths, including cycle counts.
    Program prog;
    prog.name = "dual";
    // r1 = 4 (loop counter), r2 = accumulator base
    prog.mutablePairs().push_back(
        InstrPair{rri(Op::Addi, 1, 0, 4), rri(Op::Addi, 2, 0, 0x100)});
    // loop: { acc += ctr | load m[r2] } ; { ctr -= 1 | nop }
    prog.mutablePairs().push_back(
        InstrPair{rrr(Op::Add, 3, 3, 1), rri(Op::Ld, 4, 2, 0)});
    prog.mutablePairs().push_back(
        InstrPair{rri(Op::Addi, 1, 1, -1), nop()});
    InstrPair back;
    back.a = br(Op::Bne, 1, 0, 1);
    back.b = rrr(Op::Xor, 5, 4, 3); // uses the load, one pair later: ok
    prog.mutablePairs().push_back(back);
    prog.mutablePairs().push_back(InstrPair{send(3, 1, 5), nop()});
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});

    expectSameOutcome(prog, RegFile{});
}

TEST(PpDecode, ReloadInvalidatesCache)
{
    Program prog;
    prog.name = "v1";
    prog.mutablePairs().push_back(InstrPair{rri(Op::Addi, 1, 0, 1), nop()});
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});

    const DecodedProgram *first = &prog.decoded();
    EXPECT_TRUE(first->matches(prog));
    EXPECT_EQ(&prog.decoded(), first) << "second call must hit the cache";

    // Reload: assigning a new program replaces the pairs storage, so
    // the stale decode no longer matches and is rebuilt on demand.
    Program v2;
    v2.name = "v2";
    v2.mutablePairs().push_back(InstrPair{rri(Op::Addi, 1, 0, 2), nop()});
    v2.mutablePairs().push_back(InstrPair{halt(), nop()});
    (void)v2.decoded(); // warm v2's own cache, then copy it across
    prog = v2;

    const DecodedProgram &redecoded = prog.decoded();
    EXPECT_TRUE(redecoded.matches(prog));
    EXPECT_EQ(redecoded.pairs()[0].a.imm, 2);
    EXPECT_EQ(redecoded.threaded().ops()[0].a.imm, 2);

    PpSim sim;
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    sim.run(prog, regs, mem, sent, stats);
    EXPECT_EQ(regs[1], 2u) << "run() must execute the reloaded code";
}

TEST(PpDecode, InPlaceMutationForcesRedecode)
{
    // Staleness regression test: an in-place element overwrite keeps
    // both the data pointer and the size, so the old pointer+size
    // fingerprint could not see it and run() would happily execute the
    // stale decode. The mutation version bumped by mutablePairs() must
    // close that gap — with no explicit invalidate call.
    Program prog;
    prog.name = "patch";
    prog.mutablePairs().push_back(InstrPair{rri(Op::Addi, 1, 0, 7), nop()});
    prog.mutablePairs().push_back(InstrPair{halt(), nop()});

    const DecodedProgram *first = &prog.decoded();
    EXPECT_EQ(first->pairs()[0].a.imm, 7);
    EXPECT_EQ(&prog.decoded(), first) << "no mutation: cache must hold";

    // First execution, then patch the immediate in place.
    {
        PpSim sim;
        RegFile regs{};
        FlatPpMemory mem;
        std::vector<SentMessage> sent;
        RunStats stats;
        sim.run(prog, regs, mem, sent, stats);
        EXPECT_EQ(regs[1], 7u);
    }
    {
        std::vector<InstrPair> &pairs = prog.mutablePairs();
        ASSERT_EQ(pairs[0].a.imm, 7);
        pairs[0].a.imm = 9; // same storage, same size: only the version
                            // fingerprint can catch this
    }

    EXPECT_FALSE(first->matches(prog))
        << "stale decode must not match after an in-place mutation";
    EXPECT_EQ(prog.decoded().pairs()[0].a.imm, 9);
    EXPECT_EQ(prog.decoded().threaded().ops()[0].a.imm, 9);

    PpSim sim;
    RegFile regs{};
    FlatPpMemory mem;
    std::vector<SentMessage> sent;
    RunStats stats;
    sim.run(prog, regs, mem, sent, stats);
    EXPECT_EQ(regs[1], 9u) << "run() must execute the patched code";
}

} // namespace
} // namespace flashsim::ppisa
