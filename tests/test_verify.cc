/**
 * @file
 * Verification-layer tests: the coherence oracle must stay silent on
 * correct runs and catch deliberately broken handlers (with a
 * post-mortem dump); the watchdog must trip on wedged transactions and
 * livelock, and disarm cleanly on quiescence; fault injection must be
 * seeded-deterministic and never provoke a real violation; fatal()
 * must report tick/node context and replay post-mortem dumpers.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/radix.hh"
#include "cpu/cache.hh"
#include "machine/machine.hh"
#include "sim/logging.hh"
#include "verify/oracle.hh"

namespace flashsim::machine
{
namespace
{

using protocol::HandlerId;
using protocol::HandlerResult;
using protocol::Message;
using verify::VerifyParams;
using verify::Watchdog;

/** Verification-on config: record-only policies so tests can assert on
 *  the counters instead of dying. */
MachineConfig
verifyConfig(int procs)
{
    MachineConfig cfg = MachineConfig::flash(procs);
    cfg.magic.verify.oracle = true;
    cfg.magic.verify.watchdog = true;
    cfg.magic.verify.haltOnViolation = false;
    cfg.magic.verify.haltOnTrip = false;
    cfg.magic.verify.traceDepth = 8; // keep post-mortem dumps short
    return cfg;
}

/** All nodes hammer a 64-line region spread across every node's memory
 *  with a deterministic mixed read/write pattern: plenty of sharing,
 *  invalidations, 3-hop transfers and (with small caches) evictions. */
void
runContention(Machine &m, Addr base, int iters = 4)
{
    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int it = 0; it < iters; ++it) {
            for (int i = 0; i < 64; ++i) {
                Addr a = base +
                         static_cast<Addr>((i * 7 + env.id() * 13) % 64) *
                             kLineSize;
                if ((i + it + env.id()) % 3 == 0)
                    co_await env.write(a);
                else
                    co_await env.read(a);
            }
        }
    });
    m.drain();
}

/** Allocate one page of lines on each node so the contention pattern
 *  crosses every home. */
Addr
allocSpread(Machine &m)
{
    Addr base = m.alloc(16 * kLineSize, 0);
    for (int n = 1; n < m.numProcs(); ++n)
        m.alloc(16 * kLineSize, static_cast<NodeId>(n % m.numProcs()));
    return base;
}

// ---------------------------------------------------------------------------
// Oracle: silent on correct protocol execution.

TEST(OracleTest, CleanRunHasNoViolations)
{
    MachineConfig cfg = verifyConfig(4);
    Machine m(cfg);
    Addr base = allocSpread(m);
    runContention(m, base);

    ASSERT_NE(m.sentinel(), nullptr);
    EXPECT_EQ(m.sentinel()->violations(), 0u);
    EXPECT_EQ(m.sentinel()->trips(), 0u);
    EXPECT_FALSE(m.sentinel()->dumped());
    EXPECT_GT(m.sentinel()->oracle()->trackedLines(), 0u);
    EXPECT_GT(m.sentinel()->watchdog()->retired(), 0u);
    EXPECT_EQ(m.sentinel()->watchdog()->outstanding(), 0u);
}

// ---------------------------------------------------------------------------
// Oracle: a deliberately broken handler is caught at the handler that
// introduced the bug, and a post-mortem dump is produced.

TEST(OracleTest, CatchesDroppedSharerInBrokenHandler)
{
    MachineConfig cfg = verifyConfig(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0); // homed at node 0

    // The "broken handler": ServeReadMemory adds the requester to the
    // sharer list, and this mutator immediately undoes it — the classic
    // forgotten-addSharer bug.
    bool corrupted = false;
    m.sentinel()->testMutator = [&](NodeId node, const Message &msg,
                                    HandlerResult &res) {
        if (corrupted || res.id != HandlerId::ServeReadMemory)
            return;
        corrupted = true;
        m.node(node).magic().directory().removeSharer(msg.addr,
                                                      msg.requester);
    };

    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1)
            co_await env.read(a);
    });
    m.drain();

    ASSERT_TRUE(corrupted);
    ASSERT_GE(m.sentinel()->violations(), 1u);
    const auto &log = m.sentinel()->oracle()->violationLog();
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].kind, "dir-mismatch");
    EXPECT_EQ(log[0].node, 0u);         // blamed at the home node
    EXPECT_EQ(log[0].addr, lineBase(a)); // and the corrupted line
    // Record-only policy still dumps a post-mortem (once).
    EXPECT_TRUE(m.sentinel()->dumped());

    std::ostringstream pm;
    m.sentinel()->writePostMortem(pm, "test");
    EXPECT_NE(pm.str().find("dir-mismatch"), std::string::npos);
    EXPECT_NE(pm.str().find("recent activity"), std::string::npos);
    EXPECT_NE(pm.str().find("ServeReadMemory"), std::string::npos);
}

TEST(OracleTest, CatchesCorruptedOwnerInBrokenHandler)
{
    MachineConfig cfg = verifyConfig(2);
    Machine m(cfg);
    Addr a = m.alloc(kLineSize, 0);

    // The "broken handler": ServeWriteMemory records the wrong owner —
    // the directory claims home owns the line while the requester's
    // cache goes Exclusive.
    bool corrupted = false;
    m.sentinel()->testMutator = [&](NodeId node, const Message &msg,
                                    HandlerResult &res) {
        if (corrupted || res.id != HandlerId::ServeWriteMemory)
            return;
        corrupted = true;
        auto &dir = m.node(node).magic().directory();
        protocol::DirHeader h = dir.header(msg.addr);
        h.owner = static_cast<NodeId>(h.owner == 0 ? 1 : 0);
        dir.setHeader(msg.addr, h);
    };

    m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        if (env.id() == 1)
            co_await env.write(a);
    });
    m.drain();

    ASSERT_TRUE(corrupted);
    ASSERT_GE(m.sentinel()->violations(), 1u);
    EXPECT_EQ(m.sentinel()->oracle()->violationLog()[0].kind,
              "dir-mismatch");
    EXPECT_TRUE(m.sentinel()->dumped());
}

// ---------------------------------------------------------------------------
// Oracle: a replacement hint crossing an invalidation on the mesh is a
// benign race (hints are imprecise by design), forgiven exactly once
// per invalidated sharer -- a second hint is still a violation.

TEST(OracleTest, HintCrossingInvalidationIsForgivenOnce)
{
    // A standalone home directory, set before each handler to the state
    // that handler leaves behind, so the oracle's cross-checks pass and
    // only the hint bookkeeping is under test. Every cache is Invalid.
    protocol::DirectoryStore dir;
    verify::CoherenceOracle::Wiring w;
    w.numNodes = 4;
    w.homeOf = [](Addr) { return NodeId{0}; };
    w.directories.assign(4, &dir);
    w.cacheState = [](NodeId, Addr) { return 0; };
    verify::CoherenceOracle oracle(std::move(w),
                                   /*allow_hint_anomalies=*/false);

    const Addr line = 0x1000;
    auto feed = [&](HandlerId id, protocol::MsgType type, NodeId src) {
        Message msg;
        msg.type = type;
        msg.src = src;
        msg.requester = src;
        msg.addr = line;
        HandlerResult res;
        res.id = id;
        oracle.onHandler(/*node=*/0, /*at_home=*/true, /*now=*/0, msg, res);
    };

    // Node 1 reads: it becomes a golden sharer.
    dir.addSharer(line, 1);
    feed(HandlerId::ServeReadMemory, protocol::MsgType::NetGet, 1);
    // Node 2 writes: the sharer list is cleared and an inval races
    // toward node 1 -- whose eviction hint may already be in flight.
    dir.clearSharers(line);
    protocol::DirHeader h = dir.header(line);
    h.dirty = true;
    h.owner = 2;
    dir.setHeader(line, h);
    feed(HandlerId::ServeWriteMemory, protocol::MsgType::NetGetx, 2);
    EXPECT_EQ(oracle.violations(), 0u);

    // The in-flight hint lands after the exclusive grant: benign.
    feed(HandlerId::RemoteHintOnly, protocol::MsgType::NetReplaceHint, 1);
    EXPECT_EQ(oracle.violations(), 0u);

    // A second hint from the same node has no invalidation to blame.
    feed(HandlerId::RemoteHintOnly, protocol::MsgType::NetReplaceHint, 1);
    EXPECT_EQ(oracle.violations(), 1u);
    ASSERT_FALSE(oracle.violationLog().empty());
    EXPECT_EQ(oracle.violationLog().back().kind, "hint-underflow");
}

// ---------------------------------------------------------------------------
// Oracle: the cache-side checks fire. Each test forges, from the test
// mutator, one cache state the protocol never produces -- a fill no
// request asked for, or an owner that silently dropped its line -- and
// asserts the first violation's kind and blame.

/** verifyConfig with transaction timeouts armed (far beyond the run),
 *  so a forged fill that finds no MSHR installs as a late fill instead
 *  of panicking. */
MachineConfig
forgeConfig(int procs)
{
    MachineConfig cfg = verifyConfig(procs);
    cfg.magic.txnRetryTimeout = 1000000;
    return cfg;
}

/** Deliver to @p node's cache a fill of @p line it never asked for. */
void
forgeFill(Machine &m, NodeId node, Addr line, bool exclusive)
{
    Message f;
    f.type = exclusive ? protocol::MsgType::PiPutx
                       : protocol::MsgType::PiPut;
    f.src = node;
    f.dest = node;
    f.requester = node;
    f.addr = line;
    m.node(node).cache().deliver(f);
}

/** Run @p body on @p m, calling @p forge once, after the first @p at
 *  handler for @p line; returns the oracle's violation log. */
std::vector<verify::Violation>
runForged(Machine &m, HandlerId at, Addr line,
          const std::function<void()> &forge, const Workload &body)
{
    bool fired = false;
    m.sentinel()->testMutator = [&](NodeId, const Message &msg,
                                    HandlerResult &res) {
        if (fired || res.id != at || lineBase(msg.addr) != lineBase(line))
            return;
        fired = true;
        forge();
    };
    m.run(body);
    m.drain();
    m.sentinel()->testMutator = nullptr;
    EXPECT_TRUE(fired);
    return m.sentinel()->oracle()->violationLog();
}

TEST(OracleTest, CatchesRogueSharer)
{
    // Node 1 reads; node 2 acquires a Shared copy out of thin air.
    Machine m(forgeConfig(3));
    const Addr a = m.alloc(kLineSize, 0);
    auto log = runForged(
        m, HandlerId::ServeReadMemory, a,
        [&] { forgeFill(m, 2, a, /*exclusive=*/false); },
        [=](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() == 1)
                co_await env.read(a);
        });
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].kind, "rogue-sharer");
    EXPECT_EQ(log[0].node, 0u);
    EXPECT_EQ(log[0].addr, lineBase(a));
}

TEST(OracleTest, CatchesRogueWriter)
{
    // Node 1 reads; node 2 acquires an Exclusive copy of a clean line.
    Machine m(forgeConfig(3));
    const Addr a = m.alloc(kLineSize, 0);
    auto log = runForged(
        m, HandlerId::ServeReadMemory, a,
        [&] { forgeFill(m, 2, a, /*exclusive=*/true); },
        [=](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() == 1)
                co_await env.read(a);
        });
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].kind, "rogue-writer");
    EXPECT_EQ(log[0].node, 0u);
    EXPECT_EQ(log[0].addr, lineBase(a));
}

TEST(OracleTest, CatchesWrongOwner)
{
    // Node 1 is granted the line exclusively; node 2 ends up with it.
    Machine m(forgeConfig(3));
    const Addr a = m.alloc(kLineSize, 0);
    auto log = runForged(
        m, HandlerId::ServeWriteMemory, a,
        [&] { forgeFill(m, 2, a, /*exclusive=*/true); },
        [=](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() == 1)
                co_await env.write(a);
        });
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].kind, "wrong-owner");
    EXPECT_EQ(log[0].node, 0u);
    EXPECT_EQ(log[0].addr, lineBase(a));
}

TEST(OracleTest, CatchesMultipleWriters)
{
    // Node 1 owns the line dirty; when node 2's read reaches the home
    // (forwarded to the owner), node 3 holds it Exclusive as well.
    Machine m(forgeConfig(4));
    const Addr a = m.alloc(kLineSize, 0);
    auto log = runForged(
        m, HandlerId::FwdHomeToDirty, a,
        [&] { forgeFill(m, 3, a, /*exclusive=*/true); },
        [=](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() == 1) {
                co_await env.write(a);
                co_await env.read(a); // waits for the exclusive fill
            } else if (env.id() == 2) {
                co_await env.busy(20000);
                co_await env.read(a);
            }
        });
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].kind, "multi-writer");
    EXPECT_EQ(log[0].node, 0u);
    EXPECT_EQ(log[0].addr, lineBase(a));
}

TEST(OracleTest, CatchesLostOwnerAtQuiescence)
{
    // Node 1 owns line a dirty, then drops it without a writeback (its
    // copy is invalidated behind the protocol's back while it writes
    // line b). No handler touches a again, so the quiesced final check
    // is what finds the dirty line with no owner.
    Machine m(forgeConfig(2));
    const Addr a = m.alloc(2 * kLineSize, 0);
    const Addr b = a + kLineSize;
    auto log = runForged(
        m, HandlerId::ServeWriteMemory, b,
        [&] { m.node(1).cache().invalidate(a); },
        [=](tango::Env &env) -> tango::Task {
            co_await env.busy(0);
            if (env.id() == 1) {
                co_await env.write(a);
                co_await env.read(a); // waits for the exclusive fill
                co_await env.write(b);
            }
        });
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].kind, "lost-owner");
    EXPECT_EQ(log[0].node, 0u);
    EXPECT_EQ(log[0].addr, lineBase(a));
}

// ---------------------------------------------------------------------------
// Oracle: the holder index the caches keep equals a full probe of every
// cache, at every handler of a real workload.

TEST(OracleTest, HolderIndexMatchesCacheProbeAfterEveryHandler)
{
    // A small radix sort on 8 nodes with 16 KB caches: fills, upgrades,
    // invalidations, downgrades and evictions of both clean and dirty
    // lines all change cache state.
    MachineConfig cfg = verifyConfig(8);
    cfg.cache.sizeBytes = 16u * 1024u;
    Machine m(cfg);
    apps::RadixParams p;
    p.keys = 1 << 11;
    apps::Radix radix(p);
    radix.setup(m);

    std::uint64_t checked = 0, mismatches = 0;
    m.sentinel()->testMutator = [&](NodeId, const Message &msg,
                                    HandlerResult &) {
        const Addr line = lineBase(msg.addr);
        verify::CoherenceOracle::Holders probe;
        for (int n = 0; n < m.numProcs(); ++n) {
            switch (m.node(static_cast<NodeId>(n)).cache().state(line)) {
              case cpu::Cache::State::Shared:
                probe.shared |= std::uint64_t{1} << n;
                break;
              case cpu::Cache::State::Exclusive:
                probe.exclusive |= std::uint64_t{1} << n;
                break;
              case cpu::Cache::State::Invalid:
                break;
            }
        }
        ++checked;
        if (probe != m.sentinel()->oracle()->holders(line))
            ++mismatches;
    };
    m.run(radix.body());
    m.drain();
    m.sentinel()->testMutator = nullptr;

    EXPECT_GT(checked, 10000u);
    EXPECT_EQ(mismatches, 0u);
    // The quiesced final check probed every tracked line as well.
    EXPECT_EQ(m.sentinel()->violations(), 0u);
    Counter writebacks = 0, hints = 0;
    for (int n = 0; n < m.numProcs(); ++n) {
        writebacks += m.node(static_cast<NodeId>(n)).cache().writebacks;
        hints += m.node(static_cast<NodeId>(n)).cache().replaceHints;
    }
    EXPECT_GT(writebacks, 0u);
    EXPECT_GT(hints, 0u);
}

TEST(OracleTest, IdealMachinePaperRadixHasNoViolations)
{
    // Paper-size radix (256K keys) on 16 nodes of the ideal machine.
    // Its read replies wait for memory data while invalidations do
    // not, so a later writer's invalidation often overtakes a granted
    // read reply on the mesh (18 times in this run); the reply still
    // arrives legitimately and the cache drops it on fill. The oracle
    // must remember the reply in flight instead of reporting
    // put-not-sharer.
    MachineConfig cfg = MachineConfig::ideal(16);
    cfg.magic.verify.oracle = true;
    cfg.magic.verify.watchdog = true;
    cfg.magic.verify.haltOnViolation = false;
    cfg.magic.verify.haltOnTrip = false;
    cfg.magic.verify.traceDepth = 8;
    Machine m(cfg);
    apps::Radix radix(apps::RadixParams{});
    radix.setup(m);
    m.run(radix.body());
    m.drain();

    EXPECT_GT(m.sentinel()->oracle()->trackedLines(), 1000u);
    EXPECT_EQ(m.sentinel()->violations(), 0u);
    EXPECT_EQ(m.sentinel()->trips(), 0u);
}

// ---------------------------------------------------------------------------
// Watchdog: trips on wedged transactions and on global no-progress,
// disarms on quiescence so the event queue drains.

VerifyParams
watchdogParams(Cycles interval, Cycles max_age, Cycles window)
{
    VerifyParams p;
    p.watchdog = true;
    p.haltOnTrip = false;
    p.watchdogInterval = interval;
    p.maxTransactionAge = max_age;
    p.noProgressWindow = window;
    return p;
}

TEST(WatchdogTest, TripsOnWedgedTransaction)
{
    EventQueue eq;
    VerifyParams p = watchdogParams(100, 1000, 1u << 30);
    Watchdog wd(eq, p);
    std::string reason;
    wd.onTrip = [&](const std::string &r) { reason = r; };

    wd.txnStart(2, 5 * kLineSize);
    eq.run(); // checks fire every 100 cycles until the age trips

    EXPECT_EQ(wd.trips(), 1u);
    EXPECT_EQ(wd.outstanding(), 1u);
    EXPECT_NE(reason.find("node 2"), std::string::npos) << reason;
    EXPECT_NE(reason.find("outstanding"), std::string::npos) << reason;
    // The trip disarmed the watchdog, which is why eq.run() returned at
    // all: a record-only trip must not keep the queue alive forever.
}

TEST(WatchdogTest, TripsOnNoProgress)
{
    EventQueue eq;
    VerifyParams p = watchdogParams(100, 1u << 30, 500);
    Watchdog wd(eq, p);
    std::string reason;
    wd.onTrip = [&](const std::string &r) { reason = r; };

    wd.txnStart(0, 0);
    eq.run();

    EXPECT_EQ(wd.trips(), 1u);
    EXPECT_NE(reason.find("livelock or deadlock"), std::string::npos)
        << reason;
}

TEST(WatchdogTest, DisarmsWhenAllTransactionsRetire)
{
    EventQueue eq;
    VerifyParams p = watchdogParams(100, 1000, 500);
    Watchdog wd(eq, p);

    wd.txnStart(1, kLineSize);
    wd.txnRetire(1, kLineSize);
    eq.run(); // the one scheduled check sees no txns and stops

    EXPECT_EQ(wd.trips(), 0u);
    EXPECT_EQ(wd.retired(), 1u);
    EXPECT_EQ(wd.outstanding(), 0u);
}

TEST(WatchdogTest, RetryRearmsTransactionAge)
{
    // A transaction that legitimately retries three times and retires
    // just under the per-retry age limit must never trip: txnRetry
    // restarts the age clock (and counts as progress). The control run
    // without the retries trips on the very same schedule.
    auto run = [](bool with_retries) {
        EventQueue eq;
        VerifyParams p = watchdogParams(100, 1000, 1u << 30);
        Watchdog wd(eq, p);
        wd.txnStart(4, 2 * kLineSize);
        if (with_retries)
            for (Tick t : {Tick{800}, Tick{1600}, Tick{2400}})
                eq.schedule(t, [&wd] { wd.txnRetry(4, 2 * kLineSize); });
        eq.schedule(3100, [&wd] { wd.txnRetire(4, 2 * kLineSize); });
        eq.run();
        return wd.trips();
    };
    EXPECT_EQ(run(true), 0u);
    EXPECT_EQ(run(false), 1u);
}

TEST(WatchdogTest, RetryOfUnknownTransactionIsIgnored)
{
    EventQueue eq;
    VerifyParams p = watchdogParams(100, 1000, 500);
    Watchdog wd(eq, p);
    wd.txnRetry(0, 0); // nothing outstanding: must not arm or crash
    eq.run();
    EXPECT_EQ(wd.trips(), 0u);
    EXPECT_EQ(wd.outstanding(), 0u);
}

TEST(WatchdogTest, StatusListsOldestTransactions)
{
    EventQueue eq;
    VerifyParams p = watchdogParams(100, 1u << 30, 1u << 30);
    Watchdog wd(eq, p);
    wd.txnStart(3, 7 * kLineSize);

    std::ostringstream os;
    wd.writeStatus(os);
    EXPECT_NE(os.str().find("1 transaction(s) outstanding"),
              std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("node 3"), std::string::npos) << os.str();
}

// ---------------------------------------------------------------------------
// Fault injection: perturbed runs stay coherent and replay
// bit-identically for the same (seed, config).

MachineConfig
injectionConfig(int procs, std::uint64_t seed)
{
    MachineConfig cfg = verifyConfig(procs);
    cfg.cache.sizeBytes = 4096; // force evictions: hint traffic
    cfg.magic.verify.fault.enabled = true;
    cfg.magic.verify.fault.seed = seed;
    cfg.magic.verify.fault.meshJitter = 12;
    cfg.magic.verify.fault.extraNackProb = 0.15;
    cfg.magic.verify.fault.dropHintProb = 0.1;
    cfg.magic.verify.fault.dupHintProb = 0.1;
    cfg.magic.verify.fault.inboundStall = 6;
    return cfg;
}

struct InjectionDigest
{
    Tick execTime = 0;
    Counter violations = 0;
    Counter trips = 0;
    Counter nacks = 0;
    Counter dropped = 0;
    Counter duped = 0;
    Counter jitter = 0;
    Counter stall = 0;
};

InjectionDigest
runInjected(const MachineConfig &cfg)
{
    Machine m(cfg);
    Addr base = allocSpread(m);
    runContention(m, base);
    const verify::Sentinel *s = m.sentinel();
    InjectionDigest d;
    d.execTime = m.executionTime();
    d.violations = s->violations();
    d.trips = s->trips();
    d.nacks = s->injectorStats().nacksInjected();
    d.dropped = s->injectorStats().hintsDropped();
    d.duped = s->injectorStats().hintsDuped();
    d.jitter = s->injectorStats().jitterCycles();
    d.stall = s->injectorStats().stallCycles();
    return d;
}

TEST(InjectionTest, PerturbedRunStaysCoherent)
{
    InjectionDigest d = runInjected(injectionConfig(4, 7));
    EXPECT_EQ(d.violations, 0u);
    EXPECT_EQ(d.trips, 0u);
    // The perturbations actually happened.
    EXPECT_GT(d.nacks, 0u);
    EXPECT_GT(d.jitter, 0u);
    EXPECT_GT(d.stall, 0u);
    EXPECT_GT(d.dropped + d.duped, 0u);
}

TEST(InjectionTest, SameSeedReplaysBitIdentically)
{
    InjectionDigest a = runInjected(injectionConfig(4, 11));
    InjectionDigest b = runInjected(injectionConfig(4, 11));
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.nacks, b.nacks);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.duped, b.duped);
    EXPECT_EQ(a.jitter, b.jitter);
    EXPECT_EQ(a.stall, b.stall);
}

TEST(InjectionTest, DifferentSeedsPerturbDifferently)
{
    InjectionDigest a = runInjected(injectionConfig(4, 1));
    InjectionDigest b = runInjected(injectionConfig(4, 2));
    // Identical work, different perturbation schedule: at least the
    // accumulated jitter must differ (probability of collision over
    // thousands of draws is negligible).
    EXPECT_NE(a.jitter, b.jitter);
}

// ---------------------------------------------------------------------------
// fatal() context and post-mortem plumbing.

TEST(FatalContextDeathTest, ReportsTickAndNode)
{
    EXPECT_DEATH(
        {
            setLogTickSource([] { return Tick{42}; });
            setLogNode(3);
            fatal("boom %d", 7);
        },
        "fatal: \\[t=42 node=3\\] boom 7");
}

TEST(FatalContextDeathTest, RunsPostMortemDumpersBeforeAbort)
{
    EXPECT_DEATH(
        {
            registerPostMortem([](std::ostream &os) {
                os << "RING-DUMP-MARKER\n";
            });
            fatal("dying");
        },
        "RING-DUMP-MARKER");
}

TEST(FatalContextDeathTest, HaltOnViolationDiesWithPostMortem)
{
    // End-to-end: a broken handler under the halt policy dies via
    // fatal(), whose output carries the violation and the trace dump.
    EXPECT_DEATH(
        {
            MachineConfig cfg = verifyConfig(2);
            cfg.magic.verify.haltOnViolation = true;
            Machine m(cfg);
            Addr a = m.alloc(kLineSize, 0);
            m.sentinel()->testMutator = [&](NodeId node,
                                            const Message &msg,
                                            HandlerResult &res) {
                if (res.id != HandlerId::ServeReadMemory)
                    return;
                m.node(node).magic().directory().removeSharer(
                    msg.addr, msg.requester);
            };
            m.run([=](tango::Env &env) -> tango::Task {
                co_await env.busy(0);
                if (env.id() == 1)
                    co_await env.read(a);
            });
        },
        "coherence violation \\[dir-mismatch\\].*");
}

} // namespace
} // namespace flashsim::machine
