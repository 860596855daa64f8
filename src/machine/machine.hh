/**
 * @file
 * The whole simulated multiprocessor: nodes, mesh, shared address space
 * with page placement, and the run loop.
 */

#ifndef FLASHSIM_MACHINE_MACHINE_HH_
#define FLASHSIM_MACHINE_MACHINE_HH_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machine/config.hh"
#include "machine/node.hh"
#include "network/mesh.hh"
#include "protocol/handlers.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"
#include "sim/flat_table.hh"
#include "tango/runtime.hh"
#include "tango/task.hh"
#include "verify/sentinel.hh"

namespace flashsim::machine
{

/** Workload body run on every processor. */
using Workload = std::function<tango::Task(tango::Env &)>;

class Machine : public protocol::AddressMap
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // -- Address space ------------------------------------------------------
    /** Allocate @p bytes homed on @p node; returns a line-aligned base. */
    Addr alloc(std::uint64_t bytes, NodeId node);
    /** Allocate with the configured placement policy. */
    Addr allocAuto(std::uint64_t bytes);
    NodeId homeOf(Addr addr) const override;

    /** Allocate the lines of a barrier (placed on node 0, the classic
     *  hot spot) and size it for all processors. */
    tango::BarrierVar makeBarrier();
    /** Allocate a lock line homed on @p node. */
    tango::LockVar makeLock(NodeId node = 0);

    /** Index of @p addr's page in allocation order (the key space of
     *  MachineConfig::placementHook). */
    std::uint64_t pageIndexOf(Addr addr) const;

    /**
     * Aggregate the MAGIC page-monitoring counters machine-wide
     * (requires cfg.magic.monitorPages): page index -> remote requests.
     * Feed this into a placementHook on a fresh machine to implement
     * the paper's Section 4.4 page remapping.
     */
    FlatCounterMap pageHeat() const;

    // -- Execution ------------------------------------------------------------
    /**
     * Run @p workload on every processor to completion: tick by tick,
     * each tick's events first, then its sync phase (tango lock and
     * barrier decisions, see tango::SyncPhase).
     * @return machine execution time in cycles (max processor finish).
     */
    Tick run(const Workload &workload);

    /** Drain remaining protocol events (trailing writebacks, acks). */
    void drain();

    /**
     * Bit-exact fingerprint of the final architectural state: every
     * allocated line's directory header and sharer list at its home,
     * plus each node's cache state for it. Two drained runs that agree
     * here reached the same caches and directory bit for bit — the
     * lossy-run equivalence criterion. Call after drain().
     */
    std::uint64_t stateDigest() const;

    // -- Access ----------------------------------------------------------------
    EventQueue &eq() { return eq_; }
    int numProcs() const { return cfg_.numProcs; }
    Node &node(int i) { return *nodes_[static_cast<std::size_t>(i)]; }
    const Node &node(int i) const
    {
        return *nodes_[static_cast<std::size_t>(i)];
    }
    network::MeshNetwork &network() { return *net_; }
    const network::MeshNetwork &network() const { return *net_; }
    const MachineConfig &config() const { return cfg_; }
    const protocol::HandlerPrograms &programs() const { return *programs_; }
    Tick executionTime() const { return execTime_; }

    /** The verification sentinel, or null when cfg.magic.verify is all
     *  off (the default). */
    verify::Sentinel *sentinel() { return sentinel_.get(); }
    const verify::Sentinel *sentinel() const { return sentinel_.get(); }

  private:
    MachineConfig cfg_;
    EventQueue eq_;
    tango::SyncPhase sync_;
    /** Shared, immutable, pre-decoded program set (process-wide cache:
     *  see protocol::sharedHandlerPrograms). */
    std::shared_ptr<const protocol::HandlerPrograms> programs_;
    std::unique_ptr<network::MeshNetwork> net_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unique_ptr<verify::Sentinel> sentinel_;

    /** Page table: page index -> home node. */
    std::vector<NodeId> pageHome_;
    Addr base_;
    Addr next_;
    /** log2(pageBytes) when it is a power of two, else 0 — homeOf runs
     *  per protocol message, so avoid the 64-bit division when we can. */
    std::uint32_t pageShift_ = 0;
    std::uint64_t rrCounter_ = 0;
    std::uint64_t firstFitAllocated_ = 0;
    Tick execTime_ = 0;
};

} // namespace flashsim::machine

#endif // FLASHSIM_MACHINE_MACHINE_HH_
