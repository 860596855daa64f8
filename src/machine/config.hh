/**
 * @file
 * Whole-machine configuration: FLASH vs the ideal machine, cache sizes,
 * page placement, and the PP toolchain knobs.
 */

#ifndef FLASHSIM_MACHINE_CONFIG_HH_
#define FLASHSIM_MACHINE_CONFIG_HH_

#include <cstdint>
#include <functional>

#include "cpu/cache.hh"
#include "magic/params.hh"
#include "network/mesh.hh"
#include "ppc/compiler.hh"

namespace flashsim::machine
{

/** Physical page placement policy (Sections 3.4 and 4.3). */
enum class Placement
{
    RoundRobinPages, ///< pages striped across node memories (default)
    Node0,           ///< everything in node 0's memory (FFT hot-spot run)
    FirstFit,        ///< fill one node's memory before the next (old IRIX)
};

struct MachineConfig
{
    int numProcs = 16;
    /** Only 1 is supported; kept for existing callers. */
    int shards = 1;
    magic::MagicParams magic;
    cpu::CacheParams cache;
    network::MeshParams net;
    ppc::CompileOptions ppCompile;

    Placement placement = Placement::RoundRobinPages;
    std::uint64_t pageBytes = 4096;
    /** Per-node memory filled before moving on under FirstFit. */
    std::uint64_t firstFitNodeBytes = std::uint64_t{8} << 20;

    /**
     * Page remapping hook (Section 4.4): when set it overrides every
     * allocation's home with placementHook(page index). Allocation
     * order is deterministic, so a map derived from a prior run's
     * MAGIC page-monitoring counters (see Magic::pageRemoteAccesses)
     * re-homes exactly the pages it measured — the "automatic page
     * remapping" the paper proposes building on flexibility.
     */
    std::function<NodeId(std::uint64_t page_index)> placementHook;

    /** FLASH machine with @p cache_bytes processor caches. */
    static MachineConfig
    flash(int nprocs, std::uint32_t cache_bytes = 1u << 20)
    {
        MachineConfig c;
        c.numProcs = nprocs;
        c.cache.sizeBytes = cache_bytes;
        return c;
    }

    /** The idealized hardwired machine of Section 3.1. */
    static MachineConfig
    ideal(int nprocs, std::uint32_t cache_bytes = 1u << 20)
    {
        MachineConfig c = flash(nprocs, cache_bytes);
        c.magic.ideal = true;
        c.magic.usePpEmulator = false;
        return c;
    }
};

} // namespace flashsim::machine

#endif // FLASHSIM_MACHINE_CONFIG_HH_
