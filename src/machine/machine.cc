#include "machine/machine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flashsim::machine
{

namespace
{
/** Base of the application address space (must stay clear of the
 *  protocol-data regions at 1<<44 and above). */
constexpr Addr kAppBase = Addr{1} << 20;
} // namespace

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg), programs_(protocol::sharedHandlerPrograms(cfg.ppCompile)),
      base_(kAppBase), next_(kAppBase)
{
    cfg_.magic.pageShift = 0;
    for (std::uint64_t b = cfg_.pageBytes; b > 1; b >>= 1)
        ++cfg_.magic.pageShift;
    if (cfg_.pageBytes != 0 &&
        (cfg_.pageBytes & (cfg_.pageBytes - 1)) == 0)
        pageShift_ = cfg_.magic.pageShift;

    if (cfg_.shards > 1)
        fatal("Machine: cfg.shards = %d, but only 1 is supported",
              cfg_.shards);

    net_ = std::make_unique<network::MeshNetwork>(eq_, cfg_.numProcs,
                                                  cfg_.net);
    nodes_.reserve(static_cast<std::size_t>(cfg_.numProcs));
    for (int i = 0; i < cfg_.numProcs; ++i) {
        nodes_.push_back(std::make_unique<Node>(
            eq_, static_cast<NodeId>(i), cfg_, *this, programs_.get(),
            *net_));
        nodes_.back()->env().syncPhase = &sync_;
    }

    setLogTickSource([this] { return eq_.now(); });

    if (cfg_.magic.verify.any()) {
        sentinel_ = std::make_unique<verify::Sentinel>(
            eq_, cfg_.magic.verify, cfg_.numProcs);

        verify::CoherenceOracle::Wiring w;
        w.numNodes = cfg_.numProcs;
        w.homeOf = [this](Addr a) { return homeOf(a); };
        for (auto &n : nodes_)
            w.directories.push_back(&n->magic().directory());
        w.cacheState = [this](NodeId n, Addr line) {
            switch (nodes_[n]->cache().state(line)) {
              case cpu::Cache::State::Invalid: return 0;
              case cpu::Cache::State::Shared: return 1;
              case cpu::Cache::State::Exclusive: return 2;
            }
            return 0;
        };
        sentinel_->wireOracle(std::move(w));

        for (auto &n : nodes_)
            n->magic().attachSentinel(sentinel_.get());
        if (sentinel_->injector().enabled()) {
            // Jitter draws come from the sending node's stream, so
            // the same seed perturbs the same messages. Installed
            // whenever the injector is on — not only when the jitter
            // knob is nonzero — so every send consumes exactly one
            // draw and enabling another injection class (loss, NACKs)
            // can never shift the per-node stream positions.
            net_->setPerturb([this](const protocol::Message &m) {
                return sentinel_->injector().meshJitter(m.src);
            });
            if (cfg_.magic.verify.fault.wireLossy())
                net_->enableTransport(&sentinel_->injector());
        }
    }
}

Machine::~Machine()
{
    setLogTickSource({});
}

Addr
Machine::alloc(std::uint64_t bytes, NodeId node)
{
    if (node >= static_cast<NodeId>(cfg_.numProcs))
        fatal("Machine::alloc: node %u out of range", node);
    // Under the Section 4.3 hot-spot policies the physical allocator
    // ignores NUMA placement hints: first-fit is the original
    // bus-oriented IRIX port, Node0 the all-memory-on-one-node FFT
    // experiment. Round-robin (the tuned kernel) honors explicit hints.
    if (cfg_.placement == Placement::Node0 ||
        cfg_.placement == Placement::FirstFit || cfg_.placementHook)
        return allocAuto(bytes);
    Addr start = next_;
    std::uint64_t pages =
        (bytes + cfg_.pageBytes - 1) / cfg_.pageBytes;
    if (pages == 0)
        pages = 1;
    for (std::uint64_t p = 0; p < pages; ++p)
        pageHome_.push_back(node);
    next_ += pages * cfg_.pageBytes;
    return start;
}

Addr
Machine::allocAuto(std::uint64_t bytes)
{
    Addr start = next_;
    std::uint64_t pages =
        (bytes + cfg_.pageBytes - 1) / cfg_.pageBytes;
    if (pages == 0)
        pages = 1;
    for (std::uint64_t p = 0; p < pages; ++p) {
        if (cfg_.placementHook) {
            pageHome_.push_back(cfg_.placementHook(pageHome_.size()) %
                                static_cast<NodeId>(cfg_.numProcs));
            continue;
        }
        NodeId home = 0;
        switch (cfg_.placement) {
          case Placement::RoundRobinPages:
            home = static_cast<NodeId>(rrCounter_++ %
                                       static_cast<std::uint64_t>(
                                           cfg_.numProcs));
            break;
          case Placement::Node0:
            home = 0;
            break;
          case Placement::FirstFit:
            home = static_cast<NodeId>(
                (firstFitAllocated_ / cfg_.firstFitNodeBytes) %
                static_cast<std::uint64_t>(cfg_.numProcs));
            firstFitAllocated_ += cfg_.pageBytes;
            break;
        }
        pageHome_.push_back(home);
    }
    next_ += pages * cfg_.pageBytes;
    return start;
}

NodeId
Machine::homeOf(Addr addr) const
{
    if (addr < base_)
        panic("homeOf: address 0x%llx below app base",
              static_cast<unsigned long long>(addr));
    std::uint64_t page = pageShift_ != 0
                             ? (addr - base_) >> pageShift_
                             : (addr - base_) / cfg_.pageBytes;
    if (page >= pageHome_.size())
        panic("homeOf: address 0x%llx was never allocated",
              static_cast<unsigned long long>(addr));
    return pageHome_[page];
}

tango::BarrierVar
Machine::makeBarrier()
{
    tango::BarrierVar b;
    b.parties = cfg_.numProcs;
    int ngroups = (cfg_.numProcs + tango::BarrierVar::kArity - 1) /
                  tango::BarrierVar::kArity;
    for (int g = 0; g < ngroups; ++g) {
        tango::BarrierVar::Group grp;
        // Each group's lines live on one of its members' nodes.
        NodeId home = static_cast<NodeId>(
            (g * tango::BarrierVar::kArity) % cfg_.numProcs);
        grp.countAddr = alloc(kLineSize, home);
        grp.flagAddr = alloc(kLineSize, home);
        grp.size = std::min(tango::BarrierVar::kArity,
                            cfg_.numProcs -
                                g * tango::BarrierVar::kArity);
        b.groups.push_back(grp);
    }
    b.rootCountAddr = alloc(kLineSize, 0);
    return b;
}

tango::LockVar
Machine::makeLock(NodeId node)
{
    tango::LockVar l;
    l.addr = alloc(kLineSize, node);
    return l;
}

std::uint64_t
Machine::pageIndexOf(Addr addr) const
{
    return (addr - base_) / cfg_.pageBytes;
}

FlatCounterMap
Machine::pageHeat() const
{
    FlatCounterMap heat;
    std::size_t entries = 0;
    for (const auto &n : nodes_)
        entries += n->magic().pageRemoteAccesses.size();
    heat.reserve(entries);
    const std::uint64_t base_page = base_ / cfg_.pageBytes;
    for (const auto &n : nodes_) {
        for (const auto &[abs_page, count] :
             n->magic().pageRemoteAccesses)
            heat[abs_page - base_page] += count;
    }
    // NRVO/move: the aggregate is handed to the caller, never copied.
    return heat;
}

Tick
Machine::run(const Workload &workload)
{
    for (auto &n : nodes_)
        n->startWorkload(workload);

    // finished() is monotone, so it suffices to watch one unfinished
    // processor at a time: the scan resumes where it left off instead
    // of walking every node on every step.
    std::size_t watch = 0;
    auto all_done = [this, &watch] {
        while (watch < nodes_.size() && nodes_[watch]->proc().finished())
            ++watch;
        return watch == nodes_.size();
    };

    // Each tick: the tick's events (network-lane deliveries, then
    // normal events), then its sync phase.
    while (!all_done()) {
        const Tick tq = eq_.nextTick();
        const Tick u = std::min(tq, sync_.nextTick());
        if (u == EventQueue::kNever)
            fatal("Machine::run: deadlock — event queue empty with %d "
                  "processors unfinished",
                  cfg_.numProcs);
        if (tq == u)
            eq_.drainTick(u);
        if (sync_.nextTick() == u)
            sync_.run(u, eq_);
    }

    execTime_ = 0;
    for (auto &n : nodes_)
        execTime_ = std::max(execTime_, n->proc().finishTime());
    return execTime_;
}

void
Machine::drain()
{
    eq_.run();
    // The machine is quiesced: every in-flight message has landed, so
    // the oracle can hold it to the strict (no transient windows)
    // whole-machine invariants — and every wire lane must have
    // recovered every dropped copy.
    net_->checkTransportQuiesced();
    if (sentinel_)
        sentinel_->finalCheck();
}

std::uint64_t
Machine::stateDigest() const
{
    // FNV-1a over every allocated line's directory header + sharer
    // list at its home plus each node's cache state for that line: a
    // bit-exact fingerprint of the final architectural state, for the
    // lossy-vs-clean equivalence and golden-output tests.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (Addr line = base_; line < next_; line += kLineSize) {
        const NodeId home = homeOf(line);
        const protocol::DirectoryStore &dir =
            nodes_[home]->magic().directory();
        mix(dir.header(line).pack());
        dir.forEachSharer(line, [&mix](NodeId s) { mix(s); });
        for (const auto &n : nodes_)
            mix(static_cast<std::uint64_t>(n->cache().state(line)));
    }
    return h;
}

} // namespace flashsim::machine
