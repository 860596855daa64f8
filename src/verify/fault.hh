/**
 * @file
 * Deterministic fault injector.
 *
 * Each node owns an independent xorshift64* stream (seeded from the
 * run seed and the node id), drawn in that node's event order, so a
 * (seed, config) pair replays bit-identically. Every draw is keyed by
 * the node whose event stream triggered it (the message source for
 * mesh jitter, the local MAGIC for queue stalls, NACKs and hint
 * fates), so a node's draws depend only on its own event order. The
 * injector itself is pure policy — it only answers "what should happen
 * to this message"; the mechanism (delaying delivery, synthesizing a
 * NACK, swallowing a hint) lives at the call sites in the mesh and in
 * MAGIC, which are also responsible for preserving the point-to-point
 * FIFO ordering the NACK/retry protocol depends on (delivery times are
 * clamped monotonically per (src, dest) pair and per inbound queue).
 */

#ifndef FLASHSIM_VERIFY_FAULT_HH_
#define FLASHSIM_VERIFY_FAULT_HH_

#include <vector>

#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "verify/params.hh"

namespace flashsim::verify
{

class FaultInjector
{
  public:
    FaultInjector(const FaultParams &params, int num_nodes)
        : p_(params), numNodes_(num_nodes),
          per_(static_cast<std::size_t>(num_nodes))
    {
        // Per-node seeds via a splitmix-style mix of the run seed and
        // the node id: decorrelated streams from one knob.
        for (std::size_t n = 0; n < per_.size(); ++n)
            per_[n].rng = Rng(params.seed ^
                              (0x9e3779b97f4a7c15ull * (n + 1)));
        // Per-(src,dst)-lane streams for the wire plane, mixed with a
        // different constant so lane streams never collide with node
        // streams. Drawn in lane transmission order, so loss on one
        // lane never shifts another lane's (or a node's) fates.
        if (p_.wireLossy()) {
            lanes_.resize(static_cast<std::size_t>(num_nodes) *
                          static_cast<std::size_t>(num_nodes));
            for (std::size_t l = 0; l < lanes_.size(); ++l)
                lanes_[l].rng = Rng(params.seed ^
                                    (0xbf58476d1ce4e5b9ull * (l + 1)));
        }
    }

    bool enabled() const { return p_.enabled; }
    const FaultParams &params() const { return p_; }

    // Every decision method below consumes exactly the same number of
    // stream draws regardless of which injection classes are enabled:
    // a disabled class draws and discards rather than early-outing.
    // Otherwise flipping one knob (say, enabling loss) would shift the
    // per-node stream positions and change every *other* class's
    // decisions for the same seed.

    /** Extra mesh transit cycles for one message, drawn from the
     *  stream of its source node. */
    Cycles
    meshJitter(NodeId src)
    {
        PerNode &n = per_[src];
        Cycles j = n.rng.below(p_.meshJitter + 1);
        n.jitterCycles += j;
        return j;
    }

    /** Extra cycles a message waits to enter node @p at's MAGIC
     *  inbound queue (models queue-full backpressure). */
    Cycles
    inboundStall(NodeId at)
    {
        PerNode &n = per_[at];
        Cycles s = n.rng.below(p_.inboundStall + 1);
        n.stallCycles += s;
        return s;
    }

    /** Should home node @p home NACK this GET/GETX outright? */
    bool
    rollNack(NodeId home)
    {
        PerNode &n = per_[home];
        if (n.rng.uniform() >= p_.extraNackProb)
            return false;
        ++n.nacksInjected;
        return true;
    }

    enum class HintFate
    {
        Deliver,
        Drop,
        Duplicate,
    };

    /** Fate of a replacement hint arriving at home node @p home. */
    HintFate
    hintFate(NodeId home)
    {
        PerNode &n = per_[home];
        double u = n.rng.uniform();
        if (u < p_.dropHintProb) {
            ++n.hintsDropped;
            return HintFate::Drop;
        }
        if (u < p_.dropHintProb + p_.dupHintProb) {
            ++n.hintsDuped;
            return HintFate::Duplicate;
        }
        return HintFate::Deliver;
    }

    /** Should this inbound network request (NetGet/NetGetx) die at home
     *  node @p home's NI, before touching any protocol state? Recovery
     *  relies on the requester's transaction timeout/retry. */
    bool
    txnDrop(NodeId home)
    {
        PerNode &n = per_[home];
        if (n.rng.uniform() >= p_.txnDropProb)
            return false;
        ++n.reqDropsInjected;
        return true;
    }

    // -- Wire-plane fates (per-lane streams) --------------------------------

    enum class WireFate
    {
        Deliver,
        Drop,
        Duplicate,
        Reorder,
    };

    /**
     * Fate of one wire copy on lane (@p src -> @p dst), drawn from that
     * lane's stream. When the fate is Reorder, @p extra_delay receives
     * the hold-back (>= 1 cycle). Only ever called with the wire plane
     * built (p_.wireLossy()).
     */
    WireFate
    wireFate(NodeId src, NodeId dst, Cycles &extra_delay)
    {
        PerLane &l = lanes_[static_cast<std::size_t>(src) *
                                static_cast<std::size_t>(numNodes_) +
                            dst];
        extra_delay = 0;
        double u = l.rng.uniform();
        if (u < p_.wireDropProb) {
            ++l.drops;
            return WireFate::Drop;
        }
        if (u < p_.wireDropProb + p_.wireDupProb) {
            ++l.dups;
            return WireFate::Duplicate;
        }
        if (u < p_.wireDropProb + p_.wireDupProb + p_.wireReorderProb) {
            ++l.reorders;
            extra_delay =
                1 + l.rng.below(p_.wireReorderDelay > 0 ? p_.wireReorderDelay
                                                        : 1);
            return WireFate::Reorder;
        }
        return WireFate::Deliver;
    }

    /** True when hint perturbation can leave duplicate or stale sharer
     *  pointers in the directory (the oracle relaxes its checks). */
    bool
    perturbsHints() const
    {
        return p_.enabled && (p_.dropHintProb > 0.0 || p_.dupHintProb > 0.0);
    }

    // -- Statistics (summed over nodes) -------------------------------------
    Counter
    nacksInjected() const
    {
        return sum(&PerNode::nacksInjected);
    }
    Counter
    hintsDropped() const
    {
        return sum(&PerNode::hintsDropped);
    }
    Counter
    hintsDuped() const
    {
        return sum(&PerNode::hintsDuped);
    }
    Counter
    jitterCycles() const
    {
        return sum(&PerNode::jitterCycles);
    }
    Counter
    stallCycles() const
    {
        return sum(&PerNode::stallCycles);
    }
    Counter
    reqDropsInjected() const
    {
        return sum(&PerNode::reqDropsInjected);
    }
    Counter
    wireDropsInjected() const
    {
        return laneSum(&PerLane::drops);
    }
    Counter
    wireDupsInjected() const
    {
        return laneSum(&PerLane::dups);
    }
    Counter
    wireReordersInjected() const
    {
        return laneSum(&PerLane::reorders);
    }

  private:
    /** One node's fault stream + injection counters. */
    struct PerNode
    {
        Rng rng{0};
        Counter nacksInjected = 0;
        Counter hintsDropped = 0;
        Counter hintsDuped = 0;
        Counter jitterCycles = 0;
        Counter stallCycles = 0;
        Counter reqDropsInjected = 0;
    };

    /** One wire lane's fault stream + fate counters. */
    struct PerLane
    {
        Rng rng{0};
        Counter drops = 0;
        Counter dups = 0;
        Counter reorders = 0;
    };

    Counter
    sum(Counter PerNode::*f) const
    {
        Counter total = 0;
        for (const PerNode &n : per_)
            total += n.*f;
        return total;
    }

    Counter
    laneSum(Counter PerLane::*f) const
    {
        Counter total = 0;
        for (const PerLane &l : lanes_)
            total += l.*f;
        return total;
    }

    FaultParams p_;
    int numNodes_;
    std::vector<PerNode> per_;
    std::vector<PerLane> lanes_;
};

} // namespace flashsim::verify

#endif // FLASHSIM_VERIFY_FAULT_HH_
