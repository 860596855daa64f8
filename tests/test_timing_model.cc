/** @file Unit tests for the handler timing models. */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "magic/timing_model.hh"
#include "sim/random.hh"

namespace flashsim::magic
{
namespace
{

using protocol::DirectoryStore;
using protocol::DirHeader;
using protocol::HandlerId;
using protocol::HandlerPrograms;
using protocol::HandlerResult;
using protocol::Message;
using protocol::MsgType;

Message
msg(MsgType t, NodeId src, Addr addr, NodeId req, std::uint32_t aux = 0)
{
    Message m;
    m.type = t;
    m.src = src;
    m.dest = 0;
    m.requester = req;
    m.addr = addr;
    m.aux = aux;
    return m;
}

TEST(TableTimingModel, MatchesTable34)
{
    EXPECT_EQ(TableTimingModel::cost(HandlerId::ServeReadMemory, 0), 11u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::ServeWriteMemory, 0), 14u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::ServeWriteMemory, 5),
              14u + 5u * 13u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::FwdToHome, 0), 3u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::FwdHomeToDirty, 0), 18u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::RetrieveFromCache, 0),
              38u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::ReplyToProc, 0), 2u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::LocalWriteback, 0), 10u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::LocalHint, 0), 7u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::RemoteWriteback, 0), 8u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::RemoteHintOnly, 0), 17u);
    EXPECT_EQ(TableTimingModel::cost(HandlerId::RemoteHintNth, 2),
              23u + 28u);
}

TEST(TableTimingModel, OccupancyUsesResult)
{
    TableTimingModel m;
    HandlerResult res;
    res.id = HandlerId::ServeWriteMemory;
    res.costParam = 3;
    HandlerTiming t =
        m.occupancy(msg(MsgType::NetGetx, 1, 0, 1), res);
    EXPECT_EQ(t.occupancy, 14u + 39u);
    EXPECT_EQ(t.mdcMisses, 0u);
}

class PpTimingTest : public ::testing::Test
{
  protected:
    PpTimingTest()
        : programs(protocol::buildHandlerPrograms()),
          model(programs, dir, params)
    {}

    /** Run preHandler/occupancy for a message at home node 0. */
    HandlerTiming
    time(const Message &m, HandlerId id, bool cache_dirty = false)
    {
        model.preHandler(m, 0, 0, cache_dirty);
        HandlerResult res;
        res.id = id;
        res.cacheRetrieve = id == HandlerId::RetrieveFromCache;
        return model.occupancy(m, res);
    }

    DirectoryStore dir;
    MagicParams params;
    HandlerPrograms programs;
    PpTimingModel model;
};

TEST_F(PpTimingTest, ColdRunIncludesMdcAndMicPenalties)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    HandlerTiming t = time(m, HandlerId::ServeReadMemory);
    EXPECT_TRUE(t.micColdMiss);
    EXPECT_GT(t.mdcMisses, 0u);
    EXPECT_GT(t.occupancy, params.micColdMiss);
}

TEST_F(PpTimingTest, WarmRunApproachesTable34)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    time(m, HandlerId::ServeReadMemory); // warm MIC + MDC
    HandlerTiming t = time(m, HandlerId::ServeReadMemory);
    EXPECT_FALSE(t.micColdMiss);
    EXPECT_EQ(t.mdcMisses, 0u);
    // Table 3.4 says 11 cycles for a read-miss service; the emulated
    // handler must land in its neighborhood.
    EXPECT_GE(t.occupancy, 8u);
    EXPECT_LE(t.occupancy, 16u);
}

TEST_F(PpTimingTest, ShadowWritesDoNotTouchDirectory)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    time(m, HandlerId::ServeReadMemory);
    // The PP program added a sharer in its shadow; the real directory
    // must be untouched (the C++ handler is authoritative).
    EXPECT_EQ(dir.countSharers(0x2000), 0);
    EXPECT_FALSE(dir.header(0x2000).dirty);
}

TEST_F(PpTimingTest, CacheRetrieveAddsCoordinationCycles)
{
    // A forwarded GET arriving at the dirty owner: the handler directs
    // the PI intervention ("retrieve data from processor cache",
    // Table 3.4: 38 cycles).
    Message m = msg(MsgType::NetFwdGet, 1, 0x2000, 2);
    time(m, HandlerId::RetrieveFromCache, true); // warm
    HandlerTiming t = time(m, HandlerId::RetrieveFromCache, true);
    EXPECT_GE(t.occupancy, 32u);
    EXPECT_LE(t.occupancy, 45u);
}

TEST_F(PpTimingTest, HintCostGrowsWithListPosition)
{
    // Hint for the node at position N walks N links (23 + 14N).
    auto hint_cost = [&](int n_ahead) {
        DirectoryStore d2;
        PpTimingModel m2(programs, d2, params);
        Addr line = 0x2000;
        d2.addSharer(line, 9); // the node we remove (ends up deepest)
        for (int i = 0; i < n_ahead; ++i)
            d2.addSharer(line, static_cast<NodeId>(i + 1));
        Message m = msg(MsgType::NetReplaceHint, 9, line, 9);
        m2.preHandler(m, 0, 0, false); // warm
        m2.preHandler(m, 0, 0, false);
        HandlerResult res;
        res.id = HandlerId::RemoteHintNth;
        return m2.occupancy(m, res).occupancy;
    };
    Cycles c0 = hint_cost(0);
    Cycles c2 = hint_cost(2);
    Cycles c5 = hint_cost(5);
    EXPECT_GT(c2, c0);
    EXPECT_GT(c5, c2);
    // Roughly linear growth.
    Cycles per_link = (c5 - c2) / 3;
    EXPECT_GE(per_link, 4u);
    EXPECT_LE(per_link, 20u);
}

TEST_F(PpTimingTest, StatsAccumulateAcrossRuns)
{
    Message m = msg(MsgType::NetGet, 2, 0x2000, 2);
    time(m, HandlerId::ServeReadMemory);
    time(m, HandlerId::ServeReadMemory);
    EXPECT_EQ(model.runStats().invocations, 2u);
    EXPECT_GT(model.runStats().pairs, 0u);
    EXPECT_GT(model.runStats().specialFraction(), 0.0);
}

TEST_F(PpTimingTest, GetxOccupancyScalesWithInvalidations)
{
    auto getx_cost = [&](int sharers) {
        DirectoryStore d2;
        PpTimingModel m2(programs, d2, params);
        Addr line = 0x2000;
        for (int i = 0; i < sharers; ++i)
            d2.addSharer(line, static_cast<NodeId>(i + 3));
        Message m = msg(MsgType::NetGetx, 2, line, 2);
        m2.preHandler(m, 0, 0, false);
        HandlerResult res;
        res.id = HandlerId::ServeWriteMemory;
        res.costParam = sharers;
        Cycles warm_cold = m2.occupancy(m, res).occupancy;
        (void)warm_cold;
        // Re-prime the directory (the shadow discarded the walk).
        m2.preHandler(m, 0, 0, false);
        return m2.occupancy(m, res).occupancy;
    };
    Cycles c1 = getx_cost(1);
    Cycles c4 = getx_cost(4);
    // Table 3.4: 10-15 extra cycles per invalidation.
    Cycles per_inval = (c4 - c1) / 3;
    EXPECT_GE(per_inval, 7u);
    EXPECT_LE(per_inval, 18u);
}

/**
 * The shadow memory's semantics restated as an ordinary virtual
 * PpMemory (std::map write buffer, out-of-line MagicCache probe
 * through the PpMemory interface): the reference the statically bound
 * executor is held to.
 */
class VirtualShadow : public ppisa::PpMemory
{
  public:
    VirtualShadow(const DirectoryStore &dir, MagicCache &mdc,
                  Cycles miss_penalty)
        : dir_(dir), mdc_(mdc), missPenalty_(miss_penalty)
    {}

    std::uint64_t
    load(Addr addr, Cycles &extra) override
    {
        probe(addr, false, extra);
        auto it = writes_.find(addr);
        return it != writes_.end() ? it->second : dir_.loadWord(addr);
    }

    void
    store(Addr addr, std::uint64_t value, Cycles &extra) override
    {
        probe(addr, true, extra);
        writes_[addr] = value;
    }

    void
    reset()
    {
        writes_.clear();
        misses = 0;
        writebacks = 0;
    }

    std::uint32_t misses = 0;
    std::uint32_t writebacks = 0;

  private:
    void
    probe(Addr addr, bool is_write, Cycles &extra)
    {
        const MdcAccess a = mdc_.access(addr, is_write);
        extra = a.hit ? 0 : missPenalty_;
        misses += a.hit ? 0 : 1;
        writebacks += a.victimWriteback ? 1 : 0;
    }

    const DirectoryStore &dir_;
    MagicCache &mdc_;
    Cycles missPenalty_;
    std::map<Addr, std::uint64_t> writes_;
};

/** A random directory state over @p lines: each line clean with up to
 *  five distinct sharers, or dirty at a random owner; random pending
 *  invalidation-ack counts. */
void
randomizeDirectory(DirectoryStore &dir, const std::vector<Addr> &lines,
                   Rng &rng)
{
    for (Addr line : lines) {
        dir.clearSharers(line);
        DirHeader h = dir.header(line);
        h.dirty = rng.below(10) < 3;
        h.owner = static_cast<NodeId>(rng.below(16));
        dir.setHeader(line, h);
        if (!h.dirty) {
            const std::uint64_t n = rng.below(6);
            for (std::uint64_t i = 0; i < n; ++i) {
                const NodeId node = static_cast<NodeId>(rng.below(16));
                if (!dir.isSharer(line, node))
                    dir.addSharer(line, node);
            }
        }
        dir.storeWord(protocol::ackAddr(line), rng.below(4));
    }
}

TEST(ShadowExecutor, MatchesPpSimOverVirtualMemory)
{
    // Every (message type, at-home) handler program over randomized
    // directory states: runOnShadow (the executor bound statically to
    // ShadowMemory, Sends discarded) against PpSim::run and against
    // PpSim::runReference, each over a virtual PpMemory with the same
    // semantics. A 1 KB MDC
    // (4 sets x 2 ways) keeps misses and dirty writebacks frequent,
    // and each side's MDC carries its state across invocations.
    const HandlerPrograms &programs = *protocol::sharedHandlerPrograms();
    const std::vector<Addr> lines = {0x2000, 0x2080, 0x3000, 0x3100,
                                     0x7f80, 0x12000};
    DirectoryStore dir;
    MagicCache mdcStatic(1024, 2, 128);
    MagicCache mdcThreaded(1024, 2, 128);
    MagicCache mdcRef(1024, 2, 128);
    ShadowMemory shadow(dir, mdcStatic, 29);
    VirtualShadow vThreaded(dir, mdcThreaded, 29);
    VirtualShadow vRef(dir, mdcRef, 29);
    const ppisa::PpSim sim;
    ppisa::RunStats sStatic, sThreaded, sRef;
    std::vector<ppisa::SentMessage> sent;
    Rng rng(0x5eed);

    int programsRun = 0;
    std::uint64_t invocations = 0, misses = 0, writebacks = 0;
    for (int t = 0; t < protocol::kNumMsgTypes; ++t) {
        for (int at_home = 0; at_home < 2; ++at_home) {
            const ppisa::Program *prog = programs.forMessageOrNull(
                static_cast<MsgType>(t), at_home != 0);
            if (prog == nullptr)
                continue;
            ++programsRun;
            for (int iter = 0; iter < 40; ++iter) {
                randomizeDirectory(dir, lines, rng);
                const Message m = msg(
                    static_cast<MsgType>(t),
                    static_cast<NodeId>(rng.below(16)),
                    lines[rng.below(lines.size())],
                    static_cast<NodeId>(rng.below(16)),
                    static_cast<std::uint32_t>(rng.below(4)));
                const NodeId home =
                    at_home ? 0 : static_cast<NodeId>(1 + rng.below(15));
                const bool cache_dirty = rng.below(2) != 0;
                const ppisa::RegFile in =
                    protocol::makeHandlerRegs(m, 0, home, cache_dirty);

                ppisa::RegFile rStatic = in, rThreaded = in, rRef = in;
                shadow.reset();
                vThreaded.reset();
                vRef.reset();
                const Cycles cStatic =
                    runOnShadow(prog->decoded(), rStatic, shadow, sStatic);
                sent.clear();
                const Cycles cThreaded =
                    sim.run(*prog, rThreaded, vThreaded, sent, sThreaded);
                sent.clear();
                const Cycles cRef =
                    sim.runReference(*prog, rRef, vRef, sent, sRef);

                SCOPED_TRACE(prog->name + " iteration " +
                             std::to_string(iter));
                ASSERT_EQ(cStatic, cThreaded);
                ASSERT_EQ(cStatic, cRef);
                ASSERT_EQ(rStatic, rThreaded);
                ASSERT_EQ(rStatic, rRef);
                ASSERT_EQ(shadow.misses, vThreaded.misses);
                ASSERT_EQ(shadow.misses, vRef.misses);
                ASSERT_EQ(shadow.writebacks, vThreaded.writebacks);
                ASSERT_EQ(shadow.writebacks, vRef.writebacks);
                ASSERT_EQ(sStatic, sThreaded);
                ASSERT_EQ(sStatic, sRef);
                ++invocations;
                misses += shadow.misses;
                writebacks += shadow.writebacks;
            }
        }
    }
    for (const MagicCache *other : {&mdcThreaded, &mdcRef}) {
        EXPECT_EQ(mdcStatic.reads, other->reads);
        EXPECT_EQ(mdcStatic.readMisses, other->readMisses);
        EXPECT_EQ(mdcStatic.writes, other->writes);
        EXPECT_EQ(mdcStatic.writeMisses, other->writeMisses);
        EXPECT_EQ(mdcStatic.writebacks, other->writebacks);
    }
    // Every program ran, and the MDC both missed and wrote back.
    EXPECT_GE(programsRun, 25);
    EXPECT_EQ(sStatic.invocations, invocations);
    EXPECT_GT(misses, 100u);
    EXPECT_GT(writebacks, 0u);
}

} // namespace
} // namespace flashsim::magic
