/**
 * @file
 * Golden-output pins: exact integer results of small fixed runs,
 * recorded once and compared verbatim. They guard refactors of the run
 * loop, the event queue, the mesh, the sentinel and the tango sync
 * phase — any change to event order moves at least one of these
 * numbers. Only integer fields are pinned (no floating-point ratios),
 * so sanitizer, debug and -march=native builds agree on every value.
 *
 * Coverage: fft, mp3d and radix, each clean and under four
 * fault-injection seeds; lu at its default size, the lock- and
 * barrier-heavy workload; a lock/barrier torture loop whose exact
 * acquisition order is pinned; and a dropped-request run that only
 * completes through the cache's retry timer.
 *
 * When a change alters simulated behaviour on purpose, gtest prints
 * the new signature next to the pinned one; copy it into the table
 * and say why in the change description.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/fft.hh"
#include "apps/lu.hh"
#include "apps/mp3d.hh"
#include "apps/radix.hh"
#include "apps/workload.hh"
#include "machine/machine.hh"
#include "machine/report.hh"

namespace flashsim::apps
{
namespace
{

using machine::Machine;
using machine::MachineConfig;

std::unique_ptr<Workload>
makeGoldenWorkload(int which)
{
    switch (which) {
      case 0: {
          FftParams p;
          p.logN = 8;
          return std::make_unique<Fft>(p);
      }
      case 1: {
          Mp3dParams p;
          p.particles = 2000;
          p.steps = 3;
          p.cells = 512;
          return std::make_unique<Mp3d>(p);
      }
      case 2: {
          RadixParams p;
          p.keys = 1 << 11;
          return std::make_unique<Radix>(p);
      }
      default:
        return std::make_unique<Lu>(LuParams{});
    }
}

/** Small caches + verification on; @p fault_seed 0 means no injection. */
MachineConfig
goldenConfig(std::uint64_t fault_seed, int procs = 8)
{
    MachineConfig cfg = MachineConfig::flash(procs, 64u * 1024u);
    cfg.magic.verify.oracle = true;
    cfg.magic.verify.watchdog = true;
    cfg.magic.verify.haltOnViolation = false;
    cfg.magic.verify.haltOnTrip = false;
    if (fault_seed != 0) {
        cfg.magic.verify.fault.enabled = true;
        cfg.magic.verify.fault.seed = fault_seed;
        cfg.magic.verify.fault.meshJitter = 10;
        cfg.magic.verify.fault.extraNackProb = 0.05;
        cfg.magic.verify.fault.dropHintProb = 0.05;
        cfg.magic.verify.fault.dupHintProb = 0.05;
        cfg.magic.verify.fault.inboundStall = 4;
    }
    return cfg;
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * The integer observables of a drained run: execution time, the final
 * architectural state digest, processor/handler/NACK/mesh counts, the
 * sentinel's verdicts and injector draw counts, and a hash of the
 * post-mortem trace rings (from "recent activity" on: the header's
 * "t=" is the queue's final time, already covered by the digest run).
 */
std::string
signature(const Machine &m)
{
    const machine::Summary s = machine::summarize(m);
    std::ostringstream os;
    os << "exec=" << s.execTime << " digest=" << m.stateDigest()
       << " reads=" << s.cacheReads << " writes=" << s.cacheWrites
       << " rmiss=" << s.readMisses << " wmiss=" << s.writeMisses
       << " handlers=" << s.handlerInvocations << " spec=" << s.specIssued
       << " mdcops=" << s.mdcProtocolMemOps << " nacks=" << s.nacksSent
       << " msgs=" << m.network().messages()
       << " data=" << m.network().dataMessages();
    if (const verify::Sentinel *sent = m.sentinel()) {
        const verify::FaultInjector &inj = sent->injectorStats();
        os << " viol=" << sent->violations() << " trips=" << sent->trips()
           << " retired=" << sent->watchdog()->retired()
           << " lines=" << sent->oracle()->trackedLines()
           << " inj=" << inj.nacksInjected() << '/' << inj.hintsDropped()
           << '/' << inj.hintsDuped() << '/' << inj.jitterCycles() << '/'
           << inj.stallCycles();
        std::ostringstream pm;
        sent->writePostMortem(pm, "signature");
        const std::string text = pm.str();
        const std::size_t at = text.find("recent activity");
        os << " trace="
           << fnv1a(at == std::string::npos ? text : text.substr(at));
    }
    return os.str();
}

std::string
runSignature(int workload, std::uint64_t fault_seed, int procs = 8)
{
    auto w = makeGoldenWorkload(workload);
    auto m = runWorkload(goldenConfig(fault_seed, procs), *w);
    EXPECT_EQ(m->sentinel()->violations(), 0u);
    EXPECT_EQ(m->sentinel()->trips(), 0u);
    return signature(*m);
}

struct RunPin
{
    int workload; ///< 0 fft, 1 mp3d, 2 radix (lu has its own pin)
    std::uint64_t faultSeed;
    const char *sig;
};

// clang-format off
const RunPin kRunPins[] = {
    {0, 0,
     "exec=14872 digest=14912507364663453413 reads=9386 writes=2088 rmiss=315 wmiss=238 handlers=1731 spec=513 mdcops=119 nacks=64 msgs=1209 data=332 viol=0 trips=0 retired=449 lines=67 inj=0/0/0/0/0 trace=5306703480080245150"},
    {0, 3,
     "exec=13334 digest=13558791977145880478 reads=5781 writes=2088 rmiss=315 wmiss=239 handlers=1755 spec=526 mdcops=127 nacks=77 msgs=1217 data=328 viol=0 trips=0 retired=449 lines=67 inj=24/3/1/5849/3522 trace=13228179692157454477"},
    {0, 7,
     "exec=13338 digest=3290383622201369063 reads=5872 writes=2088 rmiss=315 wmiss=261 handlers=1795 spec=538 mdcops=127 nacks=89 msgs=1237 data=325 viol=0 trips=0 retired=449 lines=67 inj=28/2/0/6056/3568 trace=4245432958605863109"},
    {0, 11,
     "exec=15282 digest=10837558844842891831 reads=9228 writes=2088 rmiss=316 wmiss=244 handlers=1772 spec=532 mdcops=125 nacks=82 msgs=1221 data=329 viol=0 trips=0 retired=450 lines=67 inj=25/1/0/6262/3507 trace=6469545326317897108"},
    {0, 23,
     "exec=13519 digest=7626078211516810779 reads=5841 writes=2088 rmiss=316 wmiss=243 handlers=1776 spec=529 mdcops=125 nacks=79 msgs=1230 data=329 viol=0 trips=0 retired=450 lines=67 inj=19/2/1/5986/3585 trace=7177108856393864569"},
    {1, 0,
     "exec=188735 digest=3177561380620738103 reads=22889 writes=12030 rmiss=5802 wmiss=5849 handlers=49407 spec=11681 mdcops=207 nacks=76 msgs=37724 data=14255 viol=0 trips=0 retired=11605 lines=763 inj=0/0/0/0/0 trace=16524376160636868573"},
    {1, 3,
     "exec=203193 digest=16219712447615752774 reads=21851 writes=12030 rmiss=5796 wmiss=5859 handlers=51054 spec=12285 mdcops=231 nacks=692 msgs=38638 data=14229 viol=0 trips=0 retired=11593 lines=763 inj=602/0/0/193642/102267 trace=17814461133143741752"},
    {1, 7,
     "exec=205503 digest=8785200390444381826 reads=23935 writes=12030 rmiss=5800 wmiss=5876 handlers=51213 spec=12330 mdcops=234 nacks=724 msgs=38758 data=14234 viol=0 trips=0 retired=11606 lines=763 inj=617/0/0/193494/102368 trace=6440573759808488528"},
    {1, 11,
     "exec=204666 digest=4510090199014254532 reads=22214 writes=12030 rmiss=5789 wmiss=5870 handlers=51083 spec=12300 mdcops=232 nacks=709 msgs=38642 data=14219 viol=0 trips=0 retired=11591 lines=763 inj=612/0/0/193544/102203 trace=1813029272377191168"},
    {1, 23,
     "exec=206796 digest=14979936756014178630 reads=25344 writes=12030 rmiss=5796 wmiss=5856 handlers=51053 spec=12283 mdcops=229 nacks=691 msgs=38652 data=14222 viol=0 trips=0 retired=11592 lines=763 inj=612/0/0/194228/102209 trace=2943524998728071433"},
    {2, 0,
     "exec=77036 digest=11743848870962640245 reads=19134 writes=8380 rmiss=1197 wmiss=3883 handlers=24076 spec=5682 mdcops=286 nacks=887 msgs=18119 data=4569 viol=0 trips=0 retired=4795 lines=195 inj=0/0/0/0/0 trace=4744698456163547224"},
    {2, 3,
     "exec=79723 digest=4678676160051674658 reads=18760 writes=8380 rmiss=1194 wmiss=3830 handlers=24391 spec=5840 mdcops=288 nacks=1098 msgs=18225 data=4513 viol=0 trips=0 retired=4742 lines=195 inj=284/16/28/91702/48622 trace=13054771289748674996"},
    {2, 7,
     "exec=79862 digest=9975468041231391365 reads=18690 writes=8380 rmiss=1197 wmiss=3861 handlers=24540 spec=5869 mdcops=290 nacks=1101 msgs=18375 data=4541 viol=0 trips=0 retired=4768 lines=195 inj=273/29/13/91347/48725 trace=8828044323061110767"},
    {2, 11,
     "exec=79477 digest=11799740092597719289 reads=16613 writes=8380 rmiss=1196 wmiss=3857 handlers=24709 spec=5923 mdcops=287 nacks=1161 msgs=18453 data=4532 viol=0 trips=0 retired=4762 lines=195 inj=289/20/19/92313/49350 trace=13772599409090604384"},
    {2, 23,
     "exec=82156 digest=3319552161661873302 reads=21194 writes=8380 rmiss=1195 wmiss=3903 handlers=24849 spec=5949 mdcops=286 nacks=1158 msgs=18565 data=4563 viol=0 trips=0 retired=4791 lines=195 inj=294/15/27/91978/50143 trace=2232049354188274163"},
};
// clang-format on

void
checkPins(bool injected)
{
    int checked = 0;
    for (const RunPin &p : kRunPins) {
        if ((p.faultSeed != 0) != injected)
            continue;
        SCOPED_TRACE("workload " + std::to_string(p.workload) + " seed " +
                     std::to_string(p.faultSeed));
        EXPECT_EQ(runSignature(p.workload, p.faultSeed), p.sig);
        ++checked;
    }
    EXPECT_EQ(checked, injected ? 12 : 3);
}

TEST(GoldenTest, CleanRunsMatchPins)
{
    checkPins(false);
}

TEST(GoldenTest, InjectedRunsMatchPins)
{
    checkPins(true);
}

// lu at default size on 16 processors (it needs a square count): its
// host time goes to coroutine resumes, cache hits and the sync phase,
// so a change to how coroutines park and resume shows here.
const char *const kLuPin =
    "exec=1582097 digest=1651069413630183955 reads=2526199 writes=383936 rmiss=47734 wmiss=51549 handlers=183203 spec=72256 mdcops=1413 nacks=1150 msgs=68751 data=22758 viol=0 trips=0 retired=71106 lines=4101 inj=0/0/0/0/0 trace=14688011577780174386";

TEST(GoldenTest, LuRunMatchesPin)
{
    EXPECT_EQ(runSignature(3, 0, 16), kLuPin);
}

TEST(GoldenTest, FaultInjectionActuallyPerturbsRun)
{
    // The injected pins above must describe a genuinely perturbed
    // machine, not one whose injector went quiet.
    auto w = makeGoldenWorkload(0);
    auto m = runWorkload(goldenConfig(7), *w);
    const verify::Sentinel *sent = m->sentinel();
    EXPECT_EQ(sent->violations(), 0u);
    EXPECT_EQ(sent->trips(), 0u);
    EXPECT_GT(sent->injectorStats().nacksInjected() +
                  sent->injectorStats().hintsDropped() +
                  sent->injectorStats().hintsDuped() +
                  sent->injectorStats().jitterCycles() +
                  sent->injectorStats().stallCycles(),
              0u);
    EXPECT_NE(signature(*m), runSignature(0, 0));
}

/**
 * Host-side synchronization torture: contended locks interleaved with
 * barrier episodes, with the critical section recording the exact
 * acquisition order. The winner order is decided by the machine's
 * per-tick sync phase, so it is the most sensitive probe of that
 * phase's (tick, node, sequence) ordering.
 */
std::string
runTorture()
{
    MachineConfig cfg = MachineConfig::flash(8, 64u * 1024u);
    Machine m(cfg);
    auto lock = std::make_shared<tango::LockVar>(m.makeLock(3));
    auto bar = std::make_shared<tango::BarrierVar>(m.makeBarrier());
    auto order = std::make_shared<std::vector<int>>();
    auto counter = std::make_shared<std::uint64_t>(0);
    const Tick t = m.run([=](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int round = 0; round < 6; ++round) {
            // Skew arrival so different processors reach the lock
            // first in different rounds.
            co_await env.busy(37 * static_cast<std::uint64_t>(
                                       (env.id() + round) % 8));
            co_await env.lockAcquire(*lock);
            order->push_back(env.id());
            *counter += static_cast<std::uint64_t>(env.id()) + 1;
            co_await env.busy(25);
            co_await env.lockRelease(*lock);
            co_await env.barrier(*bar);
        }
    });
    m.drain();
    EXPECT_EQ(order->size(), 48u);
    std::ostringstream os;
    os << "order=";
    for (int id : *order)
        os << id;
    os << " acq=" << lock->acquisitions << " gen=" << bar->gen
       << " counter=" << *counter << " exec=" << t
       << " digest=" << m.stateDigest();
    return os.str();
}

const char *const kTorturePin =
    "order=302456711730562446731205504132677403561226710435 acq=48 gen=6 counter=216 exec=11949 digest=18338744851513734373";

TEST(GoldenTest, LockAndBarrierTortureOrderMatchesPin)
{
    EXPECT_EQ(runTorture(), kTorturePin);
}

/**
 * Drop 30% of requests at the home NI; the only recovery is the
 * cache's retry timer, armed at exactly now + 2000 (doubling per
 * retry), deep inside otherwise idle stretches. A timer that fired a
 * tick early or late would move execTime.
 */
std::string
runRetry()
{
    MachineConfig cfg = MachineConfig::flash(8, 64u * 1024u);
    cfg.magic.verify.oracle = true;
    cfg.magic.verify.watchdog = true;
    cfg.magic.verify.haltOnViolation = false;
    cfg.magic.verify.haltOnTrip = false;
    cfg.magic.verify.fault.enabled = true;
    cfg.magic.verify.fault.seed = 13;
    cfg.magic.verify.fault.txnDropProb = 0.3;
    cfg.magic.txnRetryTimeout = 2000;
    Machine m(cfg);
    const Addr base = m.allocAuto(64 * 64);
    m.run([base](tango::Env &env) -> tango::Task {
        co_await env.busy(0);
        for (int i = 0; i < 4; ++i) {
            const Addr a =
                base +
                static_cast<Addr>((env.id() * 13 + i * 5) % 64) * 64;
            co_await env.read(a);
            co_await env.busy(1200);
        }
    });
    m.drain();
    const machine::Summary s = machine::summarize(m);
    EXPECT_GT(s.timeoutRetries, 0u);
    std::ostringstream os;
    os << "retries=" << s.timeoutRetries
       << " dropped=" << s.reqDropsInjected << ' ' << signature(m);
    return os.str();
}

const char *const kRetryPin =
    "retries=7 dropped=7 exec=7805 digest=10936584825972260433 reads=32 writes=0 rmiss=32 wmiss=0 handlers=95 spec=32 mdcops=5 nacks=0 msgs=63 data=28 viol=0 trips=0 retired=32 lines=25 inj=0/0/0/0/0 trace=3816256907344494253";

TEST(GoldenTest, RetryTimerRunMatchesPin)
{
    EXPECT_EQ(runRetry(), kRetryPin);
}

TEST(GoldenDeathTest, MoreThanOneShardIsFatal)
{
    MachineConfig cfg = MachineConfig::flash(8, 64u * 1024u);
    cfg.shards = 2;
    EXPECT_DEATH(Machine m(cfg), "shards");
}

} // namespace
} // namespace flashsim::apps
