/**
 * @file
 * End-to-end benchmark binary for the paper's FLASH-vs-ideal suite.
 *
 * Each workload is a pair: one FLASH machine and one ideal machine at
 * 16 processors with 1 MB caches, run one at a time in this single
 * thread (shards = 1). It uses only the library's public
 * surface: the apps' *Params, Machine construction, Workload::setup,
 * Machine::run/drain/stateDigest, machine::summarize and the public
 * counters of Magic, cpu::Cache, MeshNetwork, MemoryController and
 * PpTimingModel::runStats().
 *
 * Modes (paperbench/run.py drives them and aggregates the numbers):
 *
 *   paperbench setup --workload W --seed S [--scale default|paper]
 *       Cold set-up of both machines in this fresh process: the first
 *       handler compile, Machine construction and Workload::setup.
 *
 *   paperbench run --workload W --seed S --seconds T [--scale ...]
 *                  [--trace] [--ref-digest HEX]
 *       One verified FLASH pass (coherence oracle + watchdog), then
 *       FLASH, ideal and verified FLASH runs in turn until T seconds
 *       have been spent, each bracketed by the host-speed probe (see
 *       probe()). Every timed run is checked against the
 *       verified pass (state digest, simulated cycles, Summary
 *       counters), and radix's output against its input keys. --trace
 *       adds the layer replays after the timed runs. --ref-digest
 *       replaces the verified pass's digest as the reference (the
 *       self-test uses a wrong one to prove that mismatches count as
 *       failures).
 *
 * Output is one JSON object on the last line of stdout.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "apps/lu.hh"
#include "apps/mp3d.hh"
#include "apps/radix.hh"
#include "apps/workload.hh"
#include "cpu/cache.hh"
#include "cpu/processor.hh"
#include "machine/config.hh"
#include "machine/machine.hh"
#include "machine/report.hh"
#include "magic/magic.hh"
#include "network/mesh.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"
#include "tango/runtime.hh"
#include "tango/task.hh"

#ifndef PAPERBENCH_BUILD_TYPE
#define PAPERBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace flashsim;
using machine::Machine;
using machine::MachineConfig;
using machine::Summary;

constexpr int kProcs = 16;
constexpr std::uint32_t kCacheBytes = 1u << 20;

// ---------------------------------------------------------------------------
// Small helpers: clocks and JSON output.

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Wall and process-CPU seconds of one timed span. */
struct Span
{
    double wall = 0;
    double cpu = 0;
};

class Stopwatch
{
  public:
    Stopwatch() : wall_(wallNow()), cpu_(cpuNow()) {}
    Span
    elapsed() const
    {
        return Span{wallNow() - wall_, cpuNow() - cpu_};
    }

  private:
    double wall_;
    double cpu_;
};

/** Minimal JSON object writer (flat keys, numbers, strings, arrays). */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        return raw(k, buf);
    }
    Json &
    u64(const std::string &k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }
    Json &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }
    Json &
    boolean(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Json &
    arr(const std::string &k, const std::vector<double> &v)
    {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
            s += buf;
        }
        return raw(k, s + "]");
    }
    Json &
    obj(const std::string &k, const Json &j)
    {
        return raw(k, j.text());
    }
    Json &
    raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Keeps a replay's result observable so its work is not optimised
 *  away. */
volatile std::uint64_t gSink = 0;

void
keep(std::uint64_t v)
{
    gSink = gSink + v;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Options
{
    std::string mode;
    std::string workload = "mp3d";
    std::uint64_t seed = 1;
    bool paper = true;
    double seconds = 10;
    bool trace = false;
    bool haveRefDigest = false;
    std::uint64_t refDigest = 0;
};

/** The workload instance, and the same object as a Radix when it is
 *  one (its output is checked). */
struct App
{
    std::unique_ptr<apps::Workload> w;
    apps::Radix *radix = nullptr;
};

/** Build the workload. lu has no random input and ignores the seed. */
App
makeApp(const Options &o)
{
    App a;
    if (o.workload == "mp3d") {
        apps::Mp3dParams p = o.paper ? apps::Mp3dParams::paper()
                                     : apps::Mp3dParams{};
        p.seed = o.seed;
        a.w = std::make_unique<apps::Mp3d>(p);
    } else if (o.workload == "lu") {
        a.w = std::make_unique<apps::Lu>(o.paper ? apps::LuParams::paper()
                                                 : apps::LuParams{});
    } else if (o.workload == "radix") {
        apps::RadixParams p = o.paper ? apps::RadixParams::paper()
                                      : apps::RadixParams{};
        p.seed = o.seed;
        auto r = std::make_unique<apps::Radix>(p);
        a.radix = r.get();
        a.w = std::move(r);
    } else {
        std::fprintf(stderr, "paperbench: unknown workload '%s'\n",
                     o.workload.c_str());
        std::exit(2);
    }
    return a;
}

enum class Kind
{
    Flash,
    Ideal,
    Verified, ///< FLASH with the coherence oracle and watchdog on
};

MachineConfig
configFor(Kind k)
{
    MachineConfig cfg = k == Kind::Ideal
                            ? MachineConfig::ideal(kProcs, kCacheBytes)
                            : MachineConfig::flash(kProcs, kCacheBytes);
    cfg.shards = 1;
    if (k == Kind::Verified) {
        cfg.magic.verify.oracle = true;
        cfg.magic.verify.watchdog = true;
        // Record, do not abort: a violation or trip is a failed run.
        cfg.magic.verify.haltOnViolation = false;
        cfg.magic.verify.haltOnTrip = false;
    }
    return cfg;
}

/** Exact per-layer counts of one run, summed over the nodes. */
struct Counts
{
    std::uint64_t ppInstrs = 0;
    std::uint64_t ppPairs = 0;
    std::uint64_t handlers = 0;
    std::uint64_t queueStallCyc = 0;
    std::uint64_t nacks = 0;
    std::uint64_t specIssued = 0;
    std::uint64_t specUseless = 0;
    std::uint64_t netMessages = 0;
    std::uint64_t netDataMessages = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t refs = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t missLatSum = 0;
    std::uint64_t missLatCount = 0;
    std::uint64_t nackRetries = 0;
    std::uint64_t handlerCount[protocol::kNumHandlerIds] = {};
};

/** Everything one machine run yields. */
struct RunResult
{
    Span t;
    Tick cycles = 0;
    std::uint64_t digest = 0;
    std::uint64_t summarySig = 0;
    Summary s;
    Counts c;
    std::uint64_t violations = 0;
    std::uint64_t trips = 0;
    bool outputOk = true; ///< radix: sorted permutation of its input
};

/** FNV-1a over a run's Summary: every counter and every ratio's bits. */
std::uint64_t
summarySignature(const Summary &s)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    auto mixd = [&mix](double d) {
        std::uint64_t v = 0;
        std::memcpy(&v, &d, sizeof v);
        mix(v);
    };
    mix(s.execTime);
    for (double d : {s.busy, s.cont, s.read, s.write, s.sync, s.missRate,
                     s.dist.localClean, s.dist.localDirtyRemote,
                     s.dist.remoteClean, s.dist.remoteDirtyHome,
                     s.dist.remoteDirtyRemote, s.avgMemOcc, s.maxMemOcc,
                     s.avgPpOcc, s.maxPpOcc, s.handlersPerMiss,
                     s.specUselessFrac, s.mdcMissRate, s.mdcReadMissRate})
        mixd(d);
    for (std::uint64_t v :
         {s.cacheReads, s.cacheWrites, s.backgroundRefs, s.readMisses,
          s.writeMisses, s.handlerInvocations, s.specIssued,
          s.mdcProtocolMemOps, s.nacksSent, s.timeoutRetries, s.lateFills,
          s.degradedTxns, s.degradedResumes})
        mix(v);
    return h;
}

Counts
collectCounts(const Machine &m, const Summary &s)
{
    Counts c;
    for (int i = 0; i < m.numProcs(); ++i) {
        const magic::Magic &mg = m.node(i).magic();
        if (const magic::PpTimingModel *pp = mg.ppModel()) {
            c.ppInstrs += pp->runStats().instrs;
            c.ppPairs += pp->runStats().pairs;
        }
        c.handlers += mg.invocations;
        c.queueStallCyc += mg.queueStallCycles;
        c.nacks += mg.nacksSent;
        c.specIssued += mg.specIssued;
        c.specUseless += mg.specUseless;
        for (int h = 0; h < protocol::kNumHandlerIds; ++h)
            c.handlerCount[h] += mg.handlerCount[static_cast<std::size_t>(h)];
        const memsys::MemoryController &mem = mg.memory();
        c.memAccesses +=
            mem.reads + mem.writes + mem.rmws + mem.protocolAccesses;
        const cpu::Cache &cache = m.node(i).cache();
        c.missLatSum += static_cast<std::uint64_t>(cache.missLatency.sum());
        c.missLatCount += cache.missLatency.count();
        c.nackRetries += cache.nackRetries;
    }
    c.netMessages = m.network().messages();
    c.netDataMessages = m.network().dataMessages();
    c.refs = s.cacheReads + s.cacheWrites;
    c.readMisses = s.readMisses;
    c.writeMisses = s.writeMisses;
    return c;
}

/** Radix sorts the low passes x log2(radix) bits of each key. */
bool
radixOutputOk(const apps::Radix &r, std::vector<std::uint32_t> input)
{
    std::vector<std::uint32_t> out = r.result();
    if (r.passes() % 2 != 0 || out.size() != input.size())
        return false;
    int bits = 0;
    for (int x = r.radix(); x > 1; x >>= 1)
        ++bits;
    const int sorted_bits = bits * r.passes();
    const std::uint64_t mask = sorted_bits >= 32
                                   ? 0xffffffffull
                                   : (std::uint64_t{1} << sorted_bits) - 1;
    for (std::size_t i = 1; i < out.size(); ++i)
        if ((out[i - 1] & mask) > (out[i] & mask))
            return false;
    std::sort(out.begin(), out.end());
    std::sort(input.begin(), input.end());
    return out == input;
}

/** Set up a fresh machine and workload (untimed), then time run+drain. */
RunResult
runOnce(const Options &o, Kind k)
{
    App app = makeApp(o);
    Machine m(configFor(k));
    app.w->setup(m);
    // Before the run, result() names buffer A, which holds the input
    // keys (the paper's pass count is even, so the output lands there
    // too).
    std::vector<std::uint32_t> input;
    if (app.radix)
        input = app.radix->result();

    RunResult r;
    Stopwatch sw;
    m.run(app.w->body());
    m.drain();
    r.t = sw.elapsed();

    r.s = machine::summarize(m);
    r.cycles = m.executionTime();
    r.digest = m.stateDigest();
    r.summarySig = summarySignature(r.s);
    r.c = collectCounts(m, r.s);
    if (const verify::Sentinel *sent = m.sentinel()) {
        r.violations = sent->violations();
        r.trips = sent->trips();
    }
    if (app.radix)
        r.outputOk = radixOutputOk(*app.radix, std::move(input));
    return r;
}

/**
 * Host-speed probe: a fixed mix of integer work and random
 * read-modify-writes over a 24 MB table, which like the simulator lives
 * in the last-level cache. Its work never changes with the simulator,
 * so its CPU time tracks how fast this host runs such code at the
 * moment: cache contention from other tenants slows both alike.
 */
constexpr std::size_t kProbeWords = std::size_t{3} << 20;

double
probe()
{
    static std::vector<std::uint64_t> table(kProbeWords, 1);
    std::uint64_t x = 88172645463325252ull, sink = 0;
    const double t0 = cpuNow();
    for (int i = 0; i < 2000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        for (int j = 0; j < 8; ++j)
            sink += (x >> j) * static_cast<std::uint64_t>(i | 1);
        std::uint64_t &e = table[x % table.size()];
        e = e * 31 + static_cast<std::uint64_t>(i);
        sink += e;
    }
    const double dt = cpuNow() - t0;
    keep(sink);
    return dt;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** This process's resident-set high-water mark. VmHWM, unlike
 *  getrusage's ru_maxrss, starts afresh at exec, so a parent's
 *  footprint before the exec does not leak into it. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

// ---------------------------------------------------------------------------
// Layer replays (--trace). Each drives one layer standalone through its
// public functions and reports host ns per operation, the minimum over
// a few repetitions of a batch. Replays run hot in the host cache, so
// the per-layer times they imply are lower bounds.

/** Repeat @p batch and keep the fastest rate. A batch returns the ops
 *  it did and adds to its argument any set-up seconds to leave out. */
template <typename F>
double
nsPerOp(F &&batch, int reps = 5)
{
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        double untimed = 0;
        const double t0 = cpuNow();
        const std::uint64_t ops = batch(untimed);
        const double dt = cpuNow() - t0 - untimed;
        if (ops != 0)
            best = std::min(best, dt * 1e9 / static_cast<double>(ops));
    }
    return best;
}

/** Every address homed on node 0. */
class AllHome : public protocol::AddressMap
{
  public:
    NodeId homeOf(Addr) const override { return 0; }
};

/** Capture payload of the simulator's own events (a message's worth). */
struct EventPayload
{
    std::uint64_t addr, aux;
    std::uint32_t src, dest, req, type;
};

/** Event queue: hold model at a steady depth, near-term delays. */
double
replayEventQueue()
{
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint32_t lcg = 12345;
    auto post = [&] {
        lcg = lcg * 1664525u + 1013904223u;
        EventPayload p{sink, lcg, 1, 2, 3, 4};
        eq.schedule((lcg >> 20) & 0xff, [&sink, p] { sink += p.addr ^ p.aux; });
    };
    for (int i = 0; i < 256; ++i)
        post();
    const double ns = nsPerOp([&](double &) -> std::uint64_t {
        constexpr int kOps = 400000;
        for (int i = 0; i < kOps; ++i) {
            post();
            eq.step();
        }
        return kOps;
    });
    eq.run();
    keep(sink);
    return ns;
}

/** Directory: sharer-list updates with their header reads, the
 *  directory work of one home handler (add on a read miss, remove on a
 *  hint or invalidation). */
double
replayDirectory()
{
    protocol::DirectoryStore dir;
    std::uint64_t sink = 0;
    const double ns = nsPerOp([&](double &) -> std::uint64_t {
        constexpr int kLines = 4096;
        constexpr int kPasses = 40;
        for (int p = 0; p < kPasses; ++p)
            for (int i = 0; i < kLines; ++i) {
                const Addr line = static_cast<Addr>(i) * kLineSize;
                const NodeId a = static_cast<NodeId>(1 + (i + p / 2) % 15);
                sink += dir.loadWord(protocol::headerAddr(line));
                if (p % 2 == 0)
                    dir.addSharer(line, a);
                else
                    sink += static_cast<std::uint64_t>(
                        dir.removeSharer(line, a));
            }
        return std::uint64_t{kLines} * kPasses;
    });
    keep(sink);
    return ns;
}

/** The (message type, at home) whose program runs for a handler id. */
struct ProgramKey
{
    protocol::MsgType type;
    bool atHome;
};

ProgramKey
programFor(protocol::HandlerId id)
{
    using protocol::HandlerId;
    using protocol::MsgType;
    switch (id) {
      case HandlerId::ServeReadMemory: return {MsgType::NetGet, true};
      case HandlerId::ServeWriteMemory: return {MsgType::NetGetx, true};
      case HandlerId::FwdToHome: return {MsgType::PiGet, false};
      case HandlerId::FwdHomeToDirty: return {MsgType::NetGet, true};
      case HandlerId::RetrieveFromCache: return {MsgType::NetFwdGet, false};
      case HandlerId::ReplyToProc: return {MsgType::NetPut, false};
      case HandlerId::LocalWriteback: return {MsgType::PiWriteback, true};
      case HandlerId::LocalHint: return {MsgType::PiReplaceHint, true};
      case HandlerId::RemoteWriteback: return {MsgType::NetWriteback, true};
      case HandlerId::RemoteHintOnly:
      case HandlerId::RemoteHintNth: return {MsgType::NetReplaceHint, true};
      case HandlerId::InvalReceive: return {MsgType::NetInval, false};
      case HandlerId::InvalAck: return {MsgType::NetInvalAck, false};
      case HandlerId::SwbReceive: return {MsgType::NetSwb, true};
      case HandlerId::OwnXferReceive: return {MsgType::NetOwnXfer, true};
      case HandlerId::NackReceive: return {MsgType::NetNack, false};
      case HandlerId::HomeNack: return {MsgType::NetGet, true};
      case HandlerId::BlockXferReceive: return {MsgType::NetBlockXfer, false};
      case HandlerId::BlockAckReceive: return {MsgType::NetBlockAck, false};
      case HandlerId::FetchOpService: return {MsgType::NetFetchOp, true};
      case HandlerId::FetchOpAck: return {MsgType::NetFetchOpAck, false};
    }
    return {MsgType::NetGet, true};
}

/** PP protocol-data memory over a live directory, like MAGIC's shadow
 *  memory but without the MDC timing. */
class DirectoryMemory : public ppisa::PpMemory
{
  public:
    std::uint64_t
    load(Addr addr, Cycles &) override
    {
        return dir_.loadWord(addr);
    }
    void
    store(Addr addr, std::uint64_t value, Cycles &) override
    {
        dir_.storeWord(addr, value);
    }

  private:
    protocol::DirectoryStore dir_;
};

/** PP emulator: the shared handler programs in the workload's
 *  per-handler mix (Magic::handlerCount summed over the nodes). Each
 *  program runs on its own line of a fresh directory, so every run
 *  starts from a consistent (clean) directory state. */
double
replayPp(const Counts &c)
{
    auto programs = protocol::sharedHandlerPrograms();
    struct Slot
    {
        const ppisa::Program *prog;
        protocol::Message msg;
        bool atHome;
    };
    // One slot per 1/1000 of the mix, so a pass walks the handlers in
    // the proportions the workload ran them.
    std::vector<Slot> mix;
    std::uint64_t total = 0;
    for (std::uint64_t n : c.handlerCount)
        total += n;
    for (int h = 0; h < protocol::kNumHandlerIds && total != 0; ++h) {
        const std::uint64_t share =
            (c.handlerCount[h] * 1000 + total / 2) / total;
        const ProgramKey k = programFor(static_cast<protocol::HandlerId>(h));
        const ppisa::Program *prog =
            programs->forMessageOrNull(k.type, k.atHome);
        if (!prog)
            continue;
        for (std::uint64_t i = 0; i < share; ++i) {
            protocol::Message m;
            m.type = k.type;
            m.src = m.requester = static_cast<NodeId>(1 + mix.size() % 15);
            m.dest = 0;
            m.addr = 0x10000 + static_cast<Addr>(mix.size()) * kLineSize;
            mix.push_back({prog, m, k.atHome});
        }
    }
    if (mix.empty())
        return 0;
    ppisa::PpSim sim(ppisa::PpBackend::Threaded);
    ppisa::RunStats stats;
    std::vector<ppisa::SentMessage> sent;
    Cycles sink = 0;
    const double ns = nsPerOp([&](double &untimed) -> std::uint64_t {
        std::uint64_t ops = 0;
        while (ops < 200000) {
            const double c0 = cpuNow();
            DirectoryMemory mem;
            untimed += cpuNow() - c0;
            for (const Slot &s : mix) {
                ppisa::RegFile regs = protocol::makeHandlerRegs(
                    s.msg, 0, s.atHome ? 0 : s.msg.src, false);
                sent.clear();
                sink += sim.run(*s.prog, s.prog->decoded(), regs, mem, sent,
                                stats);
            }
            ops += mix.size();
        }
        return ops;
    });
    keep(sink);
    return ns;
}

/** Mesh: inject and deliver messages between random node pairs. */
struct MeshReplay
{
    double nsPerMsg = 0;
    double eventsPerMsg = 0;
};

MeshReplay
replayMesh()
{
    EventQueue eq;
    network::MeshNetwork net(eq, kProcs);
    std::uint64_t delivered = 0;
    for (NodeId n = 0; n < kProcs; ++n)
        net.connect(n, [&delivered](const protocol::Message &m) {
            delivered += m.addr;
        });
    protocol::Message msg;
    msg.type = protocol::MsgType::NetGet;
    msg.addr = 0x10000;
    std::uint32_t lcg = 99;
    std::uint64_t events = 0, msgs = 0;
    MeshReplay r;
    r.nsPerMsg = nsPerOp([&](double &) -> std::uint64_t {
        constexpr int kRounds = 20000;
        for (int i = 0; i < kRounds; ++i) {
            for (int j = 0; j < 16; ++j) {
                lcg = lcg * 1664525u + 1013904223u;
                msg.src = static_cast<NodeId>((lcg >> 8) & 15);
                msg.dest = static_cast<NodeId>((lcg >> 12) & 15);
                msg.requester = msg.src;
                net.send(msg);
            }
            events += eq.run();
        }
        msgs += kRounds * 16;
        return kRounds * 16;
    });
    r.eventsPerMsg = static_cast<double>(events) / static_cast<double>(msgs);
    keep(delivered);
    return r;
}

/**
 * A node's MAGIC, constructed standalone through its public
 * constructor: its PI is wired to a processor cache, its network hooks
 * drop what MAGIC sends, and every address is homed here.
 */
struct MagicRig
{
    EventQueue eq;
    AllHome map;
    std::shared_ptr<const protocol::HandlerPrograms> programs =
        protocol::sharedHandlerPrograms();
    std::unique_ptr<magic::Magic> magic;
    std::unique_ptr<cpu::Cache> cache;

    explicit MagicRig(bool ideal)
    {
        MachineConfig cfg = ideal ? MachineConfig::ideal(kProcs, kCacheBytes)
                                  : MachineConfig::flash(kProcs, kCacheBytes);
        magic::MagicHooks h;
        h.toProcessor = [this](const protocol::Message &m) {
            if (cache)
                cache->deliver(m);
        };
        h.toNetwork = [](const protocol::Message &) {};
        h.toNetworkAt = [](const protocol::Message &, Tick) {};
        h.cacheHoldsDirty = [this](Addr a) {
            return cache && cache->holdsDirty(a);
        };
        h.cacheInvalidate = [this](Addr a) {
            if (cache)
                cache->invalidate(a);
        };
        h.cacheDowngrade = [this](Addr a) {
            if (cache)
                cache->downgrade(a);
        };
        h.cacheBusy = [this](Tick until) {
            if (cache)
                cache->busyUntil(until);
        };
        h.blockReceived = [](Addr) {};
        h.blockAcked = [](Addr) {};
        h.fetchOpDone = [](Addr) {};
        magic = std::make_unique<magic::Magic>(eq, 0, cfg.magic, map,
                                               programs.get(), h);
        cache = std::make_unique<cpu::Cache>(eq, 0, cfg.cache, *magic);
    }
    // The hooks capture this.
    MagicRig(const MagicRig &) = delete;
    MagicRig &operator=(const MagicRig &) = delete;
};

struct MagicReplay
{
    double nsPerMsg = 0;
    double eventsPerMsg = 0;
};

/** MAGIC: remote read requests and replacement hints arriving at the
 *  home node, each dispatched through the inbox to its handler. */
MagicReplay
replayMagic(bool ideal)
{
    MagicRig rig(ideal);
    std::uint64_t events = 0, msgs = 0;
    MagicReplay r;
    r.nsPerMsg = nsPerOp([&](double &) -> std::uint64_t {
        constexpr int kLines = 2048;
        const std::uint64_t before = rig.magic->invocations;
        for (int i = 0; i < kLines; i += 8) {
            for (int j = i; j < i + 8; ++j) {
                protocol::Message get;
                get.type = protocol::MsgType::NetGet;
                get.src = get.requester = static_cast<NodeId>(1 + j % 15);
                get.dest = 0;
                get.addr = 0x100000 + static_cast<Addr>(j) * kLineSize;
                rig.magic->fromNetwork(get);
                protocol::Message hint = get;
                hint.type = protocol::MsgType::NetReplaceHint;
                rig.magic->fromNetwork(hint);
            }
            events += rig.eq.run();
        }
        const std::uint64_t done = rig.magic->invocations - before;
        msgs += done;
        return done;
    });
    r.eventsPerMsg =
        msgs ? static_cast<double>(events) / static_cast<double>(msgs) : 0;
    return r;
}

/** Processor cache: reads and writes to resident lines. */
double
replayCache()
{
    MagicRig rig(false);
    constexpr int kLines = 256;
    const Addr base = 0x200000;
    // Fill the lines exclusive through the local MAGIC first.
    for (int i = 0; i < kLines; ++i) {
        rig.cache->write(base + static_cast<Addr>(i) * kLineSize);
        rig.eq.run();
    }
    std::uint64_t sink = 0;
    const double ns = nsPerOp([&](double &) -> std::uint64_t {
        constexpr int kPasses = 2000;
        for (int p = 0; p < kPasses; ++p)
            for (int i = 0; i < kLines; ++i) {
                const Addr a = base + static_cast<Addr>(i) * kLineSize;
                if (i % 3 == 2)
                    sink += static_cast<std::uint64_t>(rig.cache->write(a));
                else
                    sink += static_cast<std::uint64_t>(
                        rig.cache->read(a, [] {}));
            }
        return std::uint64_t{kPasses} * kLines;
    });
    keep(sink);
    return ns;
}

struct TangoReplay
{
    double nsPerResume = 0;
    double eventsPerResume = 0;
};

tango::Task
readLoop(tango::Env &env, Addr base, int lines, int n, std::uint64_t &count)
{
    for (int i = 0; i < n; ++i) {
        co_await env.read(base + static_cast<Addr>(i % lines) * kLineSize);
        ++count;
    }
}

/** Coroutines: a workload task on a standalone Env resuming after each
 *  read of a resident line (processor event + cache hit + resume). */
TangoReplay
replayTango()
{
    MagicRig rig(false);
    cpu::Processor proc(rig.eq, 0, *rig.cache);
    tango::Env env(&proc, 0, 1);
    constexpr int kLines = 64;
    const Addr base = 0x300000;
    std::uint64_t warm = 0;
    tango::Task fill = readLoop(env, base, kLines, kLines, warm);
    fill.start();
    rig.eq.run();
    std::uint64_t events = 0, resumes = 0;
    TangoReplay r;
    r.nsPerResume = nsPerOp([&](double &) -> std::uint64_t {
        std::uint64_t count = 0;
        tango::Task t = readLoop(env, base, kLines, 200000, count);
        t.start();
        events += rig.eq.run();
        resumes += count;
        return count;
    });
    r.eventsPerResume =
        resumes ? static_cast<double>(events) / static_cast<double>(resumes)
                : 0;
    return r;
}

/** Host ns per operation of every layer, self time where one replay
 *  nests another (nested per-op costs subtracted). */
struct LayerCosts
{
    double event = 0;   ///< sim: one event scheduled and run
    double dirOp = 0;   ///< protocol: one directory transition
    double handler = 0; ///< ppisa: one handler program run
    double netMsg = 0;  ///< network self time per message
    double ref = 0;     ///< cpu: one cache read/write
    double resume = 0;  ///< tango self time per resume
    double magicMsg = 0;      ///< magic self time per dispatched message
    double idealMagicMsg = 0; ///< the same on the ideal machine
};

LayerCosts
measureLayers(const Counts &flash)
{
    LayerCosts lc;
    lc.event = replayEventQueue();
    lc.dirOp = replayDirectory();
    lc.handler = replayPp(flash);
    lc.ref = replayCache();
    const MeshReplay mr = replayMesh();
    lc.netMsg = mr.nsPerMsg - mr.eventsPerMsg * lc.event;
    const TangoReplay tr = replayTango();
    lc.resume = tr.nsPerResume - lc.ref - tr.eventsPerResume * lc.event;
    const MagicReplay fm = replayMagic(false);
    lc.magicMsg = fm.nsPerMsg - lc.handler - lc.dirOp -
                  fm.eventsPerMsg * lc.event;
    const MagicReplay im = replayMagic(true);
    lc.idealMagicMsg = im.nsPerMsg - lc.dirOp - im.eventsPerMsg * lc.event;
    return lc;
}

/** Per-layer host seconds of one machine: ns/op x that run's count.
 *  Events are not counted by the library; a processor reference, a
 *  mesh message and a handler dispatch each schedule at least one, so
 *  their sum is a lower-bound event count. */
Json
layerTimes(const LayerCosts &lc, const Counts &c, bool flash, double run_s)
{
    const double events = static_cast<double>(c.refs + c.netMessages +
                                              c.handlers);
    const double h = static_cast<double>(c.handlers);
    Json j;
    double sum = 0;
    auto put = [&](const std::string &k, double s) {
        j.num(k, s);
        sum += s;
    };
    if (flash)
        put("ppisa.host_s", lc.handler * h * 1e-9);
    put("magic.host_s", (flash ? lc.magicMsg : lc.idealMagicMsg) * h * 1e-9);
    put("protocol.host_s", lc.dirOp * h * 1e-9);
    put("network.host_s",
        lc.netMsg * static_cast<double>(c.netMessages) * 1e-9);
    put("cpu.host_s", lc.ref * static_cast<double>(c.refs) * 1e-9);
    put("tango.host_s", lc.resume * static_cast<double>(c.refs) * 1e-9);
    put("sim.host_s", lc.event * events * 1e-9);
    j.num("unattributed_s", run_s - sum);
    return j;
}

// ---------------------------------------------------------------------------
// Modes.

int
modeSetup(const Options &o)
{
    // The first machine of the process compiles the handler programs;
    // call the shared cache first so that cost is timed on its own.
    Stopwatch sw;
    auto programs = protocol::sharedHandlerPrograms(
        configFor(Kind::Flash).ppCompile);
    const double compile = sw.elapsed().cpu;
    double build = 0, setup = 0;
    for (Kind k : {Kind::Flash, Kind::Ideal}) {
        App app = makeApp(o);
        Stopwatch b;
        Machine m(configFor(k));
        build += b.elapsed().cpu;
        Stopwatch s;
        app.w->setup(m);
        setup += s.elapsed().cpu;
    }
    keep(programs->totalCodeBytes());
    Json j;
    j.num("compile_cpu", compile).num("build_cpu", build);
    j.num("setup_cpu", setup).num("total_cpu", compile + build + setup);
    std::printf("%s\n", j.text().c_str());
    return 0;
}

Json
countsJson(const RunResult &flash, const RunResult &ideal)
{
    const Counts &c = flash.c;
    const Summary &s = flash.s;
    Json j;
    j.u64("ppisa.instrs", c.ppInstrs);
    j.u64("ppisa.pairs", c.ppPairs);
    j.u64("magic.handlers", c.handlers);
    j.num("magic.pp_occ_avg", s.avgPpOcc);
    j.u64("magic.queue_stall_cyc", c.queueStallCyc);
    j.u64("magic.nacks", c.nacks);
    j.num("magic.spec_useful_frac",
          c.specIssued ? 1.0 - static_cast<double>(c.specUseless) /
                                   static_cast<double>(c.specIssued)
                       : 0.0);
    j.num("protocol.handlers_per_miss", s.handlersPerMiss);
    j.num("protocol.rdr_frac", s.dist.remoteDirtyRemote);
    j.u64("network.messages", c.netMessages);
    j.u64("network.data_messages", c.netDataMessages);
    j.u64("memsys.accesses", c.memAccesses);
    j.num("memsys.occ_avg", s.avgMemOcc);
    j.u64("cpu.refs", c.refs);
    j.u64("cpu.read_misses", c.readMisses);
    j.u64("cpu.write_misses", c.writeMisses);
    j.num("cpu.miss_latency_cyc",
          c.missLatCount ? static_cast<double>(c.missLatSum) /
                               static_cast<double>(c.missLatCount)
                         : 0.0);
    j.u64("cpu.nack_retries", c.nackRetries);
    j.u64("sim.flash_cycles", flash.cycles);
    j.u64("sim.ideal_cycles", ideal.cycles);
    return j;
}

int
modeRun(const Options &o)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "paperbench: refusing to time a build without "
                         "optimisation\n");
    return 3;
#endif
    const double t_start = wallNow();
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> why;
    auto fail = [&](const std::string &w) {
        ++failed;
        if (why.size() < 8)
            why.push_back(w);
    };

    // Per kind (FLASH, ideal, verified FLASH): each timed run's CPU and
    // wall seconds, and the mean of the host-speed probes taken just
    // before and just after it.
    struct Samples
    {
        std::vector<double> cpu, wall, probe;
    };
    Samples samples[3];
    probe(); // faults in the probe's table
    auto timed = [&](Kind k, int slot) {
        const double before = probe();
        RunResult r = runOnce(o, k);
        samples[slot].probe.push_back(0.5 * (before + probe()));
        samples[slot].cpu.push_back(r.t.cpu);
        samples[slot].wall.push_back(r.t.wall);
        return r;
    };

    // A verified run passes when the oracle and watchdog stayed silent,
    // no transaction degraded and the output is correct.
    auto checkVerified = [&](const RunResult &v) {
        ++attempted;
        if (v.violations || v.trips || v.s.degradedTxns || !v.outputOk) {
            fail("verified pass: violations=" + std::to_string(v.violations) +
                 " trips=" + std::to_string(v.trips) + " degraded=" +
                 std::to_string(v.s.degradedTxns) +
                 (v.outputOk ? "" : " bad-output"));
        }
    };
    const RunResult ref = timed(Kind::Verified, 2);
    checkVerified(ref);
    const std::uint64_t refDigest =
        o.haveRefDigest ? o.refDigest : ref.digest;

    // A timed FLASH run must reproduce the verified pass exactly (the
    // oracle is timing-neutral); the ideal machine must reproduce its
    // own first run.
    auto checkAgainst = [&](const RunResult &r, std::uint64_t digest,
                            const RunResult &want, const char *what) {
        ++attempted;
        if (r.digest != digest || r.cycles != want.cycles ||
            r.summarySig != want.summarySig || !r.outputOk ||
            r.s.degradedTxns)
            fail(std::string(what) + ": digest " + hex(r.digest) +
                 " want " + hex(digest) + ", cycles " +
                 std::to_string(r.cycles) + " want " +
                 std::to_string(want.cycles));
    };

    // Cycle FLASH, ideal, verified FLASH. A run starts only while the
    // slowest run of its kind so far still fits the budget, so once the
    // verified run no longer fits, the cheaper kinds use up the tail.
    // The first FLASH and ideal runs always happen.
    RunResult flash, ideal, firstIdeal;
    double slowest[3] = {0, 0, ref.t.wall};
    for (int i = 0, skipped = 0; skipped < 3; i = (i + 1) % 3) {
        if (!samples[i].cpu.empty() &&
            wallNow() - t_start + slowest[i] > o.seconds) {
            ++skipped;
            continue;
        }
        skipped = 0;
        const double r0 = wallNow();
        if (i == 0) {
            flash = timed(Kind::Flash, 0);
            checkAgainst(flash, refDigest, ref, "flash");
        } else if (i == 1) {
            const bool first = samples[1].cpu.empty();
            ideal = timed(Kind::Ideal, 1);
            if (first) {
                firstIdeal = ideal;
                ++attempted;
                if (!ideal.outputOk || ideal.s.degradedTxns)
                    fail("ideal: bad output or degraded");
            } else {
                checkAgainst(ideal, firstIdeal.digest, firstIdeal, "ideal");
            }
        } else {
            const RunResult v = timed(Kind::Verified, 2);
            checkVerified(v);
            checkAgainst(v, refDigest, ref, "verified rerun");
        }
        slowest[i] = std::max(slowest[i], wallNow() - r0);
    }

    Json out;
    out.str("workload", o.workload).u64("seed", o.seed);
    out.str("scale", o.paper ? "paper" : "default");
    out.str("build_type", PAPERBENCH_BUILD_TYPE);
    out.str("compiler", __VERSION__);
#ifdef __OPTIMIZE__
    out.boolean("optimized", true);
#else
    out.boolean("optimized", false);
#endif
    out.u64("attempted", attempted).u64("failed", failed);
    std::string whys = "[";
    for (std::size_t i = 0; i < why.size(); ++i)
        whys += (i ? ", \"" : "\"") + why[i] + "\"";
    out.raw("failures", whys + "]");
    const char *kinds[3] = {"flash", "ideal", "verify"};
    for (int i = 0; i < 3; ++i) {
        const std::string k = kinds[i];
        out.arr(k + "_cpu", samples[i].cpu).arr(k + "_wall", samples[i].wall);
        out.arr(k + "_probe", samples[i].probe);
    }
    out.u64("flash_refs", flash.c.refs).u64("ideal_refs", ideal.c.refs);
    out.u64("flash_cycles", flash.cycles).u64("ideal_cycles", ideal.cycles);
    out.str("flash_digest", hex(ref.digest));
    out.str("ideal_digest", hex(firstIdeal.digest));
    // The probe's table stays resident for the whole run; leave it out.
    out.num("peak_rss_mb",
            peakRssMb() - static_cast<double>(kProbeWords * 8) / (1 << 20));
    out.obj("counts", countsJson(flash, ideal));

    if (o.trace) {
        const double tr0 = wallNow();
        const LayerCosts lc = measureLayers(flash.c);
        Json cost;
        cost.num("ppisa.ns_per_handler", lc.handler);
        cost.num("magic.ns_per_msg", lc.magicMsg);
        cost.num("ideal.magic.ns_per_msg", lc.idealMagicMsg);
        cost.num("protocol.ns_per_dir_op", lc.dirOp);
        cost.num("network.ns_per_msg", lc.netMsg);
        cost.num("cpu.ns_per_ref", lc.ref);
        cost.num("tango.ns_per_resume", lc.resume);
        cost.num("sim.ns_per_event", lc.event);
        out.obj("ns_per_op", cost);
        out.obj("flash_layers",
                layerTimes(lc, flash.c, true, median(samples[0].cpu)));
        out.obj("ideal_layers",
                layerTimes(lc, ideal.c, false, median(samples[1].cpu)));
        out.num("trace_overhead_s", wallNow() - tr0);
    }
    std::printf("%s\n", out.text().c_str());
    return 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: paperbench setup|run --workload mp3d|lu|radix "
                 "--seed N [--scale paper|default] [--seconds T] "
                 "[--trace] [--ref-digest HEX]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        const std::string a = argv[i];
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = std::strtoull(next().c_str(), nullptr, 0);
        else if (a == "--scale")
            o.paper = next() == "paper";
        else if (a == "--seconds")
            o.seconds = std::atof(next().c_str());
        else if (a == "--trace")
            o.trace = true;
        else if (a == "--ref-digest") {
            o.haveRefDigest = true;
            o.refDigest = std::strtoull(next().c_str(), nullptr, 0);
        } else
            usage();
    }
    if (o.mode == "setup")
        return modeSetup(o);
    if (o.mode == "run")
        return modeRun(o);
    usage();
}
