#include "magic/timing_model.hh"

#include <algorithm>
#include <vector>

#include "ppisa/decode.hh"
#include "ppisa/threaded_exec.hh"
#include "sim/logging.hh"

namespace flashsim::magic
{

using protocol::HandlerId;

Cycles
TableTimingModel::cost(HandlerId id, int param)
{
    switch (id) {
      case HandlerId::ServeReadMemory: return 11;
      case HandlerId::ServeWriteMemory:
        return 14 + 13 * static_cast<Cycles>(param);
      case HandlerId::FwdToHome: return 3;
      case HandlerId::FwdHomeToDirty: return 18;
      case HandlerId::RetrieveFromCache: return 38;
      case HandlerId::ReplyToProc: return 2;
      case HandlerId::LocalWriteback: return 10;
      case HandlerId::LocalHint: return 7;
      case HandlerId::RemoteWriteback: return 8;
      case HandlerId::RemoteHintOnly: return 17;
      case HandlerId::RemoteHintNth:
        return 23 + 14 * static_cast<Cycles>(param);
      case HandlerId::InvalReceive: return 9;
      case HandlerId::InvalAck: return 4;
      case HandlerId::SwbReceive: return 10;
      case HandlerId::OwnXferReceive: return 5;
      case HandlerId::NackReceive: return 3;
      case HandlerId::HomeNack: return 6;
      // Table 3.4 has no row for the block-transfer and fetch&op
      // handlers; the table model charges them nothing.
      case HandlerId::BlockXferReceive:
      case HandlerId::BlockAckReceive:
      case HandlerId::FetchOpService:
      case HandlerId::FetchOpAck:
        return 0;
    }
    return 0;
}

HandlerTiming
TableTimingModel::occupancy(const protocol::Message &,
                            const protocol::HandlerResult &res)
{
    HandlerTiming t;
    t.occupancy = cost(res.id, res.costParam);
    return t;
}

Cycles
runOnShadow(const ppisa::DecodedProgram &d, ppisa::RegFile &regs,
            ShadowMemory &mem, ppisa::RunStats &stats)
{
    ppisa::DiscardSends sends;
    return ppisa::runThreadedOn(d, regs, mem, sends, stats);
}

PpTimingModel::PpTimingModel(const protocol::HandlerPrograms &programs,
                             const protocol::DirectoryStore &dir,
                             const MagicParams &params)
    : programs_(programs), params_(params),
      mdc_(params.mdcBytes, params.mdcAssoc, params.mdcLineBytes),
      shadow_(dir, mdc_, params.mdcMissPenalty), sim_(params.ppBackend),
      direct_(params.ppBackend == ppisa::PpBackend::Threaded &&
              !ppisa::PpSim::oracleEnabled())
{
    // Resolve the (type, at_home) -> program mapping once — the handler
    // load point — pre-decoding each program so no dispatch or decode
    // work remains on the per-message path. Entries aliasing the same
    // program share a warm slot (see DispatchEntry).
    std::vector<const ppisa::Program *> uniq;
    for (int t = 0; t < protocol::kNumMsgTypes; ++t) {
        for (int at_home = 0; at_home < 2; ++at_home) {
            const ppisa::Program *prog = programs_.forMessageOrNull(
                static_cast<protocol::MsgType>(t), at_home != 0);
            if (prog == nullptr)
                continue;
            const ppisa::DecodedProgram &decoded = prog->decoded();
            auto it = std::find(uniq.begin(), uniq.end(), prog);
            if (it == uniq.end())
                it = uniq.insert(uniq.end(), prog);
            dispatch_[static_cast<std::size_t>(t)]
                     [static_cast<std::size_t>(at_home)] = DispatchEntry{
                prog, &decoded,
                static_cast<std::int8_t>(it - uniq.begin())};
        }
    }
}

void
PpTimingModel::preHandler(const protocol::Message &msg, NodeId self,
                          NodeId home, bool cache_dirty)
{
    const DispatchEntry &e =
        dispatch_[static_cast<std::size_t>(msg.type)][home == self ? 1 : 0];
    if (e.prog == nullptr)
        panic("HandlerPrograms: no program for type %d",
              static_cast<int>(msg.type));
    shadow_.reset();
    ppisa::RegFile regs =
        protocol::makeHandlerRegs(msg, self, home, cache_dirty);
    Cycles cycles;
    if (direct_) {
        cycles = runOnShadow(*e.decoded, regs, shadow_, stats_);
    } else {
        sent_.clear();
        cycles = sim_.run(*e.prog, *e.decoded, regs, shadow_, sent_, stats_);
    }

    last_ = HandlerTiming{};
    last_.occupancy = cycles;
    last_.mdcMisses = shadow_.misses;
    last_.mdcWritebacks = shadow_.writebacks;
    bool &warm = warm_[static_cast<std::size_t>(e.warmSlot)];
    if (!warm) {
        warm = true;
        last_.micColdMiss = true;
        last_.occupancy += params_.micColdMiss;
    }
}

HandlerTiming
PpTimingModel::occupancy(const protocol::Message &,
                         const protocol::HandlerResult &res)
{
    HandlerTiming t = last_;
    // The PP coordinates the PI intervention while data streams out of
    // the processor cache; Table 3.4 charges this coordination to the
    // handler ("retrieve data from processor cache": 38 cycles total).
    if (res.cacheRetrieve)
        t.occupancy += params_.cacheStateRetrieve +
                       params_.cacheDataRetrieve - 1;
    return t;
}

} // namespace flashsim::magic
