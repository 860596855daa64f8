#include "verify/oracle.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>

#include "sim/logging.hh"

namespace flashsim::verify
{

using protocol::DirHeader;
using protocol::HandlerId;
using protocol::HandlerResult;
using protocol::Message;
using protocol::MsgType;

namespace
{

bool
isGetKind(MsgType t)
{
    return t == MsgType::PiGet || t == MsgType::NetGet ||
           t == MsgType::NetFwdGet;
}

bool
isGetxKind(MsgType t)
{
    return t == MsgType::PiGetx || t == MsgType::NetGetx ||
           t == MsgType::NetFwdGetx;
}

std::uint64_t
bit(NodeId n)
{
    return std::uint64_t{1} << n;
}

/** Lowest node in a nonzero bitmask. */
NodeId
lowest(std::uint64_t mask)
{
    return static_cast<NodeId>(std::countr_zero(mask));
}

/** mirrorExtra_ key of node @p n's listings of @p line_base. */
std::uint64_t
dupKey(Addr line_base, NodeId n)
{
    return (lineNumber(line_base) << 6) | n;
}

std::string
hexMask(std::uint64_t mask)
{
    std::ostringstream os;
    os << "0x" << std::hex << mask;
    return os.str();
}

} // namespace

CoherenceOracle::CoherenceOracle(Wiring wiring, bool allow_hint_anomalies)
    : w_(std::move(wiring)), allowHintAnomalies_(allow_hint_anomalies)
{
    if (w_.numNodes > 64)
        fatal("CoherenceOracle: sharer bitmasks support at most 64 nodes "
              "(machine has %d)", w_.numNodes);
}

CoherenceOracle::GoldenLine &
CoherenceOracle::record(Addr line_base)
{
    const std::uint64_t ln = lineNumber(line_base);
    Counter &slot = pageSlot_[ln >> kPageShift];
    if (slot == 0) {
        pages_.push_back(std::make_unique<GoldenLine[]>(kPageLines));
        slot = pages_.size();
    }
    return pages_[slot - 1][ln & (kPageLines - 1)];
}

CoherenceOracle::GoldenLine *
CoherenceOracle::findRecord(Addr line_base) const
{
    const std::uint64_t ln = lineNumber(line_base);
    const Counter *slot = pageSlot_.find(ln >> kPageShift);
    return slot == nullptr ? nullptr
                           : &pages_[*slot - 1][ln & (kPageLines - 1)];
}

CoherenceOracle::GoldenLine &
CoherenceOracle::line(Addr line_base)
{
    GoldenLine &g = record(line_base);
    if (!g.tracked) {
        g.tracked = true;
        ++tracked_;
    }
    return g;
}

CoherenceOracle::GoldenLine *
CoherenceOracle::find(Addr line_base)
{
    GoldenLine *g = findRecord(line_base);
    return g != nullptr && g->tracked ? g : nullptr;
}

unsigned
CoherenceOracle::mirrorCount(const GoldenLine &g, Addr line_base,
                             NodeId n) const
{
    if ((g.mirrorSharers & bit(n)) == 0)
        return 0;
    if (!g.mirrorDups)
        return 1;
    const Counter *extra = mirrorExtra_.find(dupKey(line_base, n));
    return 1 + static_cast<unsigned>(extra != nullptr ? *extra : 0);
}

void
CoherenceOracle::addMirror(GoldenLine &g, Addr line_base, NodeId n)
{
    if ((g.mirrorSharers & bit(n)) == 0) {
        g.mirrorSharers |= bit(n);
        return;
    }
    g.mirrorDups = true;
    ++mirrorExtra_[dupKey(line_base, n)];
}

bool
CoherenceOracle::dropMirror(GoldenLine &g, Addr line_base, NodeId n)
{
    if (g.mirrorDups) {
        Counter &extra = mirrorExtra_[dupKey(line_base, n)];
        if (extra != 0) {
            --extra;
            return false;
        }
    }
    g.mirrorSharers &= ~bit(n);
    return true;
}

void
CoherenceOracle::clearMirror(GoldenLine &g, Addr line_base)
{
    if (g.mirrorDups) {
        for (std::uint64_t m = g.mirrorSharers; m != 0; m &= m - 1)
            mirrorExtra_[dupKey(line_base, lowest(m))] = 0;
        g.mirrorDups = false;
    }
    g.mirrorSharers = 0;
}

void
CoherenceOracle::noteCacheState(NodeId node, Addr line, int state)
{
    Holders &h = record(line).held;
    h.shared &= ~bit(node);
    h.exclusive &= ~bit(node);
    if (state == 1)
        h.shared |= bit(node);
    else if (state == 2)
        h.exclusive |= bit(node);
}

CoherenceOracle::Holders
CoherenceOracle::holders(Addr line) const
{
    const GoldenLine *g = findRecord(lineBase(line));
    return g != nullptr ? g->held : Holders{};
}

void
CoherenceOracle::fail(Tick now, NodeId node, Addr addr, const char *kind,
                      std::string detail)
{
    Violation v{now, node, addr, kind, std::move(detail)};
    ++violationCount_;
    if (log_.size() < kLogCap)
        log_.push_back(v);
    if (onViolation)
        onViolation(v);
}

void
CoherenceOracle::onHandler(NodeId node, bool at_home, Tick now,
                           const Message &msg, const HandlerResult &res)
{
    const Addr lb = lineBase(msg.addr);
    GoldenLine *g = applyTransition(node, at_home, now, msg, res, lb);
    if (g == nullptr)
        return;
    if (at_home)
        checkDirectory(now, node, lb, *g);
    checkCaches(now, node, lb, *g, g->held, /*quiesced=*/false);
}

CoherenceOracle::GoldenLine *
CoherenceOracle::applyTransition(NodeId node, bool at_home, Tick now,
                                 const Message &msg,
                                 const HandlerResult &res, Addr lb)
{
    switch (res.id) {
      // Message-passing and fetch&op traffic bypasses the directory.
      case HandlerId::BlockXferReceive:
      case HandlerId::BlockAckReceive:
      case HandlerId::FetchOpService:
      case HandlerId::FetchOpAck:
      case HandlerId::FwdToHome:
        return nullptr;

      case HandlerId::ServeReadMemory: {
        GoldenLine &g = line(lb);
        if (g.truthDirty) {
            fail(now, node, lb, "stale-read",
                 "read served from memory while the line is dirty in a "
                 "cache (owner " + std::to_string(g.truthOwner) + ")");
        } else if (g.memEpoch != g.writeEpoch) {
            fail(now, node, lb, "lost-dirty-data",
                 "read served from memory holding epoch " +
                     std::to_string(g.memEpoch) + " but latest is " +
                     std::to_string(g.writeEpoch));
        }
        if ((g.mirrorSharers & bit(msg.requester)) != 0 &&
            !allowHintAnomalies_) {
            fail(now, node, lb, "dup-sharer",
                 "requester " + std::to_string(msg.requester) +
                     " already on the sharer list when its GET arrived");
        }
        addMirror(g, lb, msg.requester);
        g.truthSharers |= bit(msg.requester);
        if (msg.requester != node)
            g.replyPending |= bit(msg.requester);
        return &g;
      }

      case HandlerId::ServeWriteMemory: {
        GoldenLine &g = line(lb);
        if (g.truthDirty) {
            fail(now, node, lb, "double-grant",
                 "write serviced from memory while the line is dirty "
                 "(owner " + std::to_string(g.truthOwner) + ")");
        } else if (g.memEpoch != g.writeEpoch) {
            fail(now, node, lb, "lost-dirty-data",
                 "exclusive grant from memory holding epoch " +
                     std::to_string(g.memEpoch) + " but latest is " +
                     std::to_string(g.writeEpoch));
        }
        // Every listed sharer but the requester is invalidated. The
        // home's own copy goes synchronously inside the handler; remote
        // sharers have an inval in flight. Either way the sharer may
        // have evicted already, with its replacement hint still
        // crossing the mesh toward us.
        const std::uint64_t others = g.mirrorSharers & ~bit(msg.requester);
        g.hintDebt |= others;
        g.invalPending |= others & ~bit(node);
        clearMirror(g, lb);
        g.truthSharers = 0;
        g.mirrorDirty = true;
        g.mirrorOwner = msg.requester;
        g.truthDirty = true;
        g.truthOwner = msg.requester;
        ++g.writeEpoch;
        return &g;
      }

      case HandlerId::RetrieveFromCache: {
        GoldenLine &g = line(lb);
        if (!g.truthDirty || g.truthOwner != node) {
            fail(now, node, lb, "retrieve-not-owner",
                 "cache retrieval at node " + std::to_string(node) +
                     " but golden owner is " +
                     (g.truthDirty ? std::to_string(g.truthOwner)
                                   : std::string("<clean>")));
        }
        if (isGetKind(msg.type)) {
            // Old owner downgrades and serves the requester; memory is
            // brought current now (home case) or at the SWB (3-hop).
            g.truthDirty = false;
            g.truthOwner = kInvalidNode;
            g.truthSharers = bit(node) | bit(msg.requester);
            if (msg.requester != node)
                g.replyPending |= bit(msg.requester);
            if (at_home) {
                g.memEpoch = g.writeEpoch;
                g.mirrorDirty = false;
                g.mirrorOwner = kInvalidNode;
                clearMirror(g, lb);
                addMirror(g, lb, node);
                if (msg.requester != node)
                    addMirror(g, lb, msg.requester);
            } else {
                g.swbInFlight = true;
            }
        } else if (isGetxKind(msg.type)) {
            // Ownership moves to the requester; the old copy was
            // invalidated synchronously inside this handler.
            g.truthOwner = msg.requester;
            ++g.writeEpoch;
            if (at_home)
                g.mirrorOwner = msg.requester;
        }
        return &g;
      }

      case HandlerId::LocalWriteback:
      case HandlerId::RemoteWriteback: {
        GoldenLine &g = line(lb);
        const NodeId writer = msg.src;
        if (g.truthDirty && g.truthOwner == writer) {
            g.truthDirty = false;
            g.truthOwner = kInvalidNode;
            g.memEpoch = g.writeEpoch;
        }
        if (g.mirrorDirty && g.mirrorOwner == writer) {
            g.mirrorDirty = false;
            g.mirrorOwner = kInvalidNode;
        }
        return &g;
      }

      case HandlerId::LocalHint:
      case HandlerId::RemoteHintOnly:
      case HandlerId::RemoteHintNth: {
        GoldenLine &g = line(lb);
        const NodeId src = msg.src;
        if ((g.mirrorSharers & bit(src)) != 0) {
            if (dropMirror(g, lb, src))
                g.truthSharers &= ~bit(src);
        } else if ((g.hintDebt & bit(src)) != 0) {
            // The hint crossed the invalidation from a later exclusive
            // grant; the directory entry it meant to retire is already
            // gone. Benign race — consume the forgiveness so a second,
            // genuinely spurious hint from this node still fails.
            g.hintDebt &= ~bit(src);
        } else if (!allowHintAnomalies_) {
            fail(now, node, lb, "hint-underflow",
                 "replacement hint from node " + std::to_string(src) +
                     " which is not on the golden sharer list");
        }
        return &g;
      }

      case HandlerId::SwbReceive: {
        GoldenLine &g = line(lb);
        g.mirrorDirty = false;
        g.mirrorOwner = kInvalidNode;
        addMirror(g, lb, msg.src);
        if (msg.requester != msg.src)
            addMirror(g, lb, msg.requester);
        if (g.swbInFlight) {
            g.memEpoch = g.writeEpoch;
            g.swbInFlight = false;
        }
        return &g;
      }

      case HandlerId::OwnXferReceive: {
        GoldenLine &g = line(lb);
        g.mirrorDirty = true;
        g.mirrorOwner = msg.requester;
        return &g;
      }

      case HandlerId::InvalReceive: {
        GoldenLine &g = line(lb);
        g.invalPending &= ~bit(node);
        return &g;
      }

      case HandlerId::ReplyToProc: {
        GoldenLine *g = find(lb);
        if (g == nullptr)
            return nullptr;
        if (msg.type == MsgType::NetPutx && g->truthOwner != msg.requester) {
            fail(now, node, lb, "putx-not-owner",
                 "exclusive reply delivered to node " +
                     std::to_string(msg.requester) +
                     " but golden owner is " +
                     std::to_string(g->truthOwner));
        }
        if (msg.type == MsgType::NetPut) {
            const std::uint64_t entitled =
                g->truthSharers | g->invalPending | g->replyPending;
            if ((entitled & bit(msg.requester)) == 0) {
                fail(now, node, lb, "put-not-sharer",
                     "read reply delivered to node " +
                         std::to_string(msg.requester) +
                         " which is not an entitled sharer");
            }
            g->replyPending &= ~bit(msg.requester);
        }
        return g;
      }

      // NACKs and acks change no golden state.
      case HandlerId::HomeNack:
      case HandlerId::NackReceive:
      case HandlerId::InvalAck:
      case HandlerId::FwdHomeToDirty:
      default:
        return find(lb);
    }
}

void
CoherenceOracle::checkDirectory(Tick now, NodeId home, Addr line_base,
                                const GoldenLine &g)
{
    const protocol::DirectoryStore &dir = *w_.directories[home];
    DirHeader h = dir.header(line_base);
    if (h.dirty != g.mirrorDirty) {
        fail(now, home, line_base, "dir-mismatch",
             std::string("directory dirty bit is ") +
                 (h.dirty ? "set" : "clear") + " but golden mirror says " +
                 (g.mirrorDirty ? "set" : "clear"));
        return;
    }
    if (g.mirrorDirty && h.owner != g.mirrorOwner) {
        fail(now, home, line_base, "dir-mismatch",
             "directory owner is " + std::to_string(h.owner) +
                 " but golden mirror says " +
                 std::to_string(g.mirrorOwner));
        return;
    }
    // Walk the list in place against the mirror's per-node counts.
    std::array<std::uint16_t, 64> want{};
    for (std::uint64_t m = g.mirrorSharers; m != 0; m &= m - 1) {
        const NodeId s = lowest(m);
        want[s] = static_cast<std::uint16_t>(mirrorCount(g, line_base, s));
    }
    const NodeId nodes = static_cast<NodeId>(w_.numNodes);
    std::size_t listed = 0;
    NodeId stray = kInvalidNode;
    dir.forEachSharer(line_base, [&](NodeId s) {
        ++listed;
        if (stray != kInvalidNode)
            return;
        if (s >= nodes || want[s] == 0)
            stray = s;
        else
            --want[s];
    });
    if (stray != kInvalidNode) {
        fail(now, home, line_base, "dir-mismatch",
             "directory sharer list contains node " +
                 std::to_string(stray) +
                 " not in the golden mirror (list size " +
                 std::to_string(listed) + ")");
        return;
    }
    for (std::uint64_t m = g.mirrorSharers; m != 0; m &= m - 1) {
        const NodeId s = lowest(m);
        if (want[s] != 0) {
            const unsigned have = mirrorCount(g, line_base, s);
            fail(now, home, line_base, "dir-mismatch",
                 "directory sharer list is missing node " +
                     std::to_string(s) + " (golden mirror has it " +
                     std::to_string(have) + "x, list has it " +
                     std::to_string(have - want[s]) + "x)");
            return;
        }
    }
}

void
CoherenceOracle::checkCaches(Tick now, NodeId node, Addr line_base,
                             const GoldenLine &g, const Holders &h,
                             bool quiesced)
{
    std::uint64_t allowed = g.truthSharers;
    if (!quiesced) {
        allowed |= g.invalPending;
        if (g.truthDirty && g.truthOwner != kInvalidNode)
            allowed |= bit(g.truthOwner); // upgrade in flight
    }
    int exclusive = 0;
    NodeId holder = kInvalidNode;
    for (std::uint64_t m = h.shared | h.exclusive; m != 0; m &= m - 1) {
        const NodeId n = lowest(m);
        if ((h.exclusive & bit(n)) != 0) {
            ++exclusive;
            holder = n;
            if (exclusive > 1) {
                fail(now, node, line_base, "multi-writer",
                     "more than one cache holds the line Exclusive");
                return;
            }
        } else if ((allowed & bit(n)) == 0) {
            fail(now, node, line_base, "rogue-sharer",
                 "node " + std::to_string(n) +
                     " holds a Shared copy without being an entitled "
                     "sharer or having an invalidation in flight");
        }
    }
    if (exclusive == 1) {
        if (!g.truthDirty) {
            fail(now, node, line_base, "rogue-writer",
                 "node " + std::to_string(holder) +
                     " holds the line Exclusive but the golden state is "
                     "clean");
        } else if (holder != g.truthOwner) {
            fail(now, node, line_base, "wrong-owner",
                 "node " + std::to_string(holder) +
                     " holds the line Exclusive but the golden owner is " +
                     std::to_string(g.truthOwner));
        }
    }
    if (quiesced) {
        if (g.truthDirty && exclusive == 0) {
            fail(now, node, line_base, "lost-owner",
                 "quiesced machine: golden state dirty (owner " +
                     std::to_string(g.truthOwner) +
                     ") but no cache holds the line Exclusive");
        }
        if (!g.truthDirty && g.memEpoch != g.writeEpoch) {
            fail(now, node, line_base, "lost-dirty-data",
                 "quiesced machine: memory holds epoch " +
                     std::to_string(g.memEpoch) + " but latest is " +
                     std::to_string(g.writeEpoch));
        }
    }
}

void
CoherenceOracle::finalCheck(Tick now)
{
    // Pages in address order; lines within a page are consecutive.
    std::vector<std::pair<std::uint64_t, Counter>> pages(pageSlot_.begin(),
                                                         pageSlot_.end());
    std::sort(pages.begin(), pages.end());
    for (const auto &[page, slot] : pages) {
        for (std::uint64_t i = 0; i < kPageLines; ++i) {
            const GoldenLine &g = pages_[slot - 1][i];
            if (!g.tracked)
                continue;
            const Addr a = ((page << kPageShift) + i) * kLineSize;
            if (g.invalPending != 0) {
                fail(now, 0, a, "stuck-inval",
                     "quiesced machine: invalidations still marked in "
                     "flight (mask " + hexMask(g.invalPending) + ")");
            }
            if (g.swbInFlight) {
                fail(now, 0, a, "stuck-swb",
                     "quiesced machine: sharing writeback never arrived "
                     "at the home node");
            }
            NodeId home = w_.homeOf(a);
            checkDirectory(now, home, a, g);
            // Probe every cache, then hold the index to the probe.
            Holders probed;
            for (NodeId n = 0; n < static_cast<NodeId>(w_.numNodes); ++n) {
                const int st = w_.cacheState(n, a);
                if (st == 1)
                    probed.shared |= bit(n);
                else if (st == 2)
                    probed.exclusive |= bit(n);
            }
            if (probed != g.held) {
                fail(now, home, a, "holder-index",
                     "holder index has Shared " + hexMask(g.held.shared) +
                         " Exclusive " + hexMask(g.held.exclusive) +
                         " but the caches hold Shared " +
                         hexMask(probed.shared) + " Exclusive " +
                         hexMask(probed.exclusive));
            }
            checkCaches(now, home, a, g, probed, /*quiesced=*/true);
        }
    }
}

} // namespace flashsim::verify
