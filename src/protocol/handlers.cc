#include "protocol/handlers.hh"

#include "sim/logging.hh"

namespace flashsim::protocol
{

const char *
handlerIdName(HandlerId id)
{
    switch (id) {
      case HandlerId::ServeReadMemory: return "ServeReadMemory";
      case HandlerId::ServeWriteMemory: return "ServeWriteMemory";
      case HandlerId::FwdToHome: return "FwdToHome";
      case HandlerId::FwdHomeToDirty: return "FwdHomeToDirty";
      case HandlerId::RetrieveFromCache: return "RetrieveFromCache";
      case HandlerId::ReplyToProc: return "ReplyToProc";
      case HandlerId::LocalWriteback: return "LocalWriteback";
      case HandlerId::LocalHint: return "LocalHint";
      case HandlerId::RemoteWriteback: return "RemoteWriteback";
      case HandlerId::RemoteHintOnly: return "RemoteHintOnly";
      case HandlerId::RemoteHintNth: return "RemoteHintNth";
      case HandlerId::InvalReceive: return "InvalReceive";
      case HandlerId::InvalAck: return "InvalAck";
      case HandlerId::SwbReceive: return "SwbReceive";
      case HandlerId::OwnXferReceive: return "OwnXferReceive";
      case HandlerId::NackReceive: return "NackReceive";
      case HandlerId::HomeNack: return "HomeNack";
      case HandlerId::BlockXferReceive: return "BlockXferReceive";
      case HandlerId::BlockAckReceive: return "BlockAckReceive";
      case HandlerId::FetchOpService: return "FetchOpService";
      case HandlerId::FetchOpAck: return "FetchOpAck";
    }
    return "?";
}

Message
ProtocolEngine::make(MsgType type, NodeId dest, Addr addr, NodeId requester,
                     std::uint32_t aux) const
{
    Message m;
    m.type = type;
    m.src = self_;
    m.dest = dest;
    m.requester = requester;
    m.addr = addr;
    m.aux = aux;
    return m;
}

HandlerResult
ProtocolEngine::handle(const Message &msg)
{
    const bool at_home = map_.homeOf(msg.addr) == self_;
    switch (msg.type) {
      case MsgType::PiGet:
      case MsgType::PiGetx:
      case MsgType::PiWriteback:
      case MsgType::PiReplaceHint:
        if (!at_home)
            return handleRequestForward(msg);
        switch (msg.type) {
          case MsgType::PiGet: return handleGetAtHome(msg);
          case MsgType::PiGetx: return handleGetxAtHome(msg);
          case MsgType::PiWriteback: return handleWritebackAtHome(msg);
          default: return handleReplaceHintAtHome(msg);
        }
      case MsgType::NetGet:
        return handleGetAtHome(msg);
      case MsgType::NetGetx:
        return handleGetxAtHome(msg);
      case MsgType::NetFwdGet:
        return handleFwdGet(msg);
      case MsgType::NetFwdGetx:
        return handleFwdGetx(msg);
      case MsgType::NetWriteback:
        return handleWritebackAtHome(msg);
      case MsgType::NetReplaceHint:
        return handleReplaceHintAtHome(msg);
      case MsgType::NetSwb:
        return handleSwb(msg);
      case MsgType::NetOwnXfer:
        return handleOwnXfer(msg);
      case MsgType::NetInval:
        return handleInval(msg);
      case MsgType::NetPut:
      case MsgType::NetPutx:
      case MsgType::NetInvalAck:
      case MsgType::NetNack:
        return handleReply(msg);
      case MsgType::NetBlockXfer:
      case MsgType::NetBlockAck:
        return handleBlockXfer(msg);
      case MsgType::PiFetchOp:
      case MsgType::NetFetchOp:
      case MsgType::NetFetchOpAck:
        return handleFetchOp(msg);
      default:
        panic("ProtocolEngine: no handler for %s", msg.toString().c_str());
    }
}

HandlerResult
ProtocolEngine::handleRequestForward(const Message &msg)
{
    // Requester-side: pass the processor's request on to the home node.
    // "Forward request to home node" (Table 3.4: 3 cycles).
    HandlerResult r;
    r.id = HandlerId::FwdToHome;
    NodeId home = map_.homeOf(msg.addr);
    MsgType t;
    switch (msg.type) {
      case MsgType::PiGet: t = MsgType::NetGet; break;
      case MsgType::PiGetx: t = MsgType::NetGetx; break;
      case MsgType::PiWriteback: t = MsgType::NetWriteback; break;
      case MsgType::PiReplaceHint: t = MsgType::NetReplaceHint; break;
      default:
        panic("handleRequestForward: bad type %s", msgTypeName(msg.type));
    }
    r.out.push_back({make(t, home, msg.addr, self_), Gate::None});
    return r;
}

HandlerResult
ProtocolEngine::handleGetAtHome(const Message &msg)
{
    HandlerResult r;
    const Addr addr = msg.addr;
    const NodeId req = msg.requester;
    DirHeader h = dir_.header(addr);

    if (h.dirty) {
        if (h.owner == req) {
            // The requester's own writeback is in flight; retry until the
            // writeback reaches memory.
            r.id = HandlerId::HomeNack;
            r.nackedRequest = true;
            r.out.push_back(
                {make(MsgType::NetNack, req, addr, req), Gate::None});
            return r;
        }
        if (h.owner == self_) {
            // Dirty in the home node's own processor cache: retrieve the
            // data via the processor interface, downgrade to shared, and
            // do a sharing writeback to memory.
            if (!probe_.holdsDirty(addr)) {
                // Local writeback already left the cache and sits in the
                // PI queue behind this message; retry.
                r.id = HandlerId::HomeNack;
                r.nackedRequest = true;
                r.out.push_back(
                    {make(MsgType::NetNack, req, addr, req), Gate::None});
                return r;
            }
            r.id = HandlerId::RetrieveFromCache;
            r.cacheRetrieve = true;
            r.cacheSharing = true;
            r.memWrite = true;
            h.dirty = false;
            h.owner = 0;
            dir_.setHeader(addr, h);
            dir_.addSharer(addr, self_);
            dir_.addSharer(addr, req);
            r.out.push_back({make(MsgType::NetPut, req, addr, req),
                             Gate::CacheData});
            return r;
        }
        // Dirty in a third node's cache: three-hop forward.
        r.id = HandlerId::FwdHomeToDirty;
        r.out.push_back(
            {make(MsgType::NetFwdGet, h.owner, addr, req), Gate::None});
        return r;
    }

    // Clean at home: serve from memory. The sharer list is a prepend-only
    // structure (dynamic pointer allocation): FIFO message ordering
    // guarantees a node is never on the list when its GET arrives, so no
    // membership walk is needed (this keeps the handler at its 11-cycle
    // budget).
    r.id = HandlerId::ServeReadMemory;
    r.memRead = true;
    dir_.addSharer(addr, req);
    if (req == self_) {
        r.out.push_back(
            {make(MsgType::PiPut, self_, addr, req), Gate::MemData});
    } else {
        r.out.push_back(
            {make(MsgType::NetPut, req, addr, req), Gate::MemData});
    }
    return r;
}

HandlerResult
ProtocolEngine::handleGetxAtHome(const Message &msg)
{
    HandlerResult r;
    const Addr addr = msg.addr;
    const NodeId req = msg.requester;
    DirHeader h = dir_.header(addr);

    if (h.dirty) {
        if (h.owner == req) {
            r.id = HandlerId::HomeNack;
            r.nackedRequest = true;
            r.out.push_back(
                {make(MsgType::NetNack, req, addr, req), Gate::None});
            return r;
        }
        if (h.owner == self_) {
            if (!probe_.holdsDirty(addr)) {
                r.id = HandlerId::HomeNack;
                r.nackedRequest = true;
                r.out.push_back(
                    {make(MsgType::NetNack, req, addr, req), Gate::None});
                return r;
            }
            // Dirty in home's own cache: retrieve + invalidate local copy,
            // transfer ownership to the requester. Memory stays stale (the
            // requester now owns the only valid copy).
            r.id = HandlerId::RetrieveFromCache;
            r.cacheRetrieve = true;
            r.cacheInvalidate = true;
            h.owner = req;
            dir_.setHeader(addr, h);
            r.out.push_back({make(MsgType::NetPutx, req, addr, req, 0),
                             Gate::CacheData});
            return r;
        }
        r.id = HandlerId::FwdHomeToDirty;
        r.out.push_back(
            {make(MsgType::NetFwdGetx, h.owner, addr, req), Gate::None});
        return r;
    }

    // Clean: invalidate all sharers other than the requester, then grant
    // exclusive ownership with data from memory. "Service write miss from
    // main memory" (Table 3.4: 14 + 10..15 per invalidation).
    r.id = HandlerId::ServeWriteMemory;
    r.memRead = true;
    std::uint32_t acks = 0;
    dir_.forEachSharer(addr, [&](NodeId s) {
        if (s == req)
            return;
        if (s == self_) {
            // Invalidate the home's own processor cache and ack on its
            // behalf (requester is necessarily remote here).
            r.cacheInvalidate = true;
            r.out.push_back({make(MsgType::NetInvalAck, req, addr, req),
                             Gate::CacheData});
        } else {
            r.out.push_back(
                {make(MsgType::NetInval, s, addr, req), Gate::None});
        }
        ++acks;
    });
    r.costParam = static_cast<int>(acks);
    dir_.clearSharers(addr);
    h = dir_.header(addr);
    h.dirty = true;
    h.owner = req;
    dir_.setHeader(addr, h);

    if (req == self_) {
        r.out.push_back({make(MsgType::PiPutx, self_, addr, req, acks),
                         Gate::MemData});
    } else {
        r.out.push_back({make(MsgType::NetPutx, req, addr, req, acks),
                         Gate::MemData});
    }
    return r;
}

HandlerResult
ProtocolEngine::handleFwdGet(const Message &msg)
{
    // At the (supposed) dirty owner: serve the requester directly and do
    // a sharing writeback to the home node.
    HandlerResult r;
    const Addr addr = msg.addr;
    const NodeId req = msg.requester;
    const NodeId home = map_.homeOf(addr);

    if (!probe_.holdsDirty(addr)) {
        // Ownership already left this cache (writeback or previous
        // forward in flight): NACK the requester, it will retry.
        r.id = HandlerId::NackReceive; // small handler: compose NACK
        r.nackedRequest = true;
        r.out.push_back(
            {make(MsgType::NetNack, req, addr, req), Gate::None});
        return r;
    }
    r.id = HandlerId::RetrieveFromCache;
    r.cacheRetrieve = true;
    r.cacheSharing = true;
    r.out.push_back(
        {make(MsgType::NetPut, req, addr, req), Gate::CacheData});
    r.out.push_back(
        {make(MsgType::NetSwb, home, addr, req), Gate::CacheData});
    return r;
}

HandlerResult
ProtocolEngine::handleFwdGetx(const Message &msg)
{
    HandlerResult r;
    const Addr addr = msg.addr;
    const NodeId req = msg.requester;
    const NodeId home = map_.homeOf(addr);

    if (!probe_.holdsDirty(addr)) {
        r.id = HandlerId::NackReceive;
        r.nackedRequest = true;
        r.out.push_back(
            {make(MsgType::NetNack, req, addr, req), Gate::None});
        return r;
    }
    r.id = HandlerId::RetrieveFromCache;
    r.cacheRetrieve = true;
    r.cacheInvalidate = true;
    r.out.push_back(
        {make(MsgType::NetPutx, req, addr, req, 0), Gate::CacheData});
    r.out.push_back(
        {make(MsgType::NetOwnXfer, home, addr, req), Gate::None});
    return r;
}

HandlerResult
ProtocolEngine::handleWritebackAtHome(const Message &msg)
{
    HandlerResult r;
    const Addr addr = msg.addr;
    const NodeId writer = msg.src;
    r.id = writer == self_ ? HandlerId::LocalWriteback
                           : HandlerId::RemoteWriteback;
    r.memWrite = true;
    DirHeader h = dir_.header(addr);
    if (h.dirty && h.owner == writer) {
        h.dirty = false;
        h.owner = 0;
        dir_.setHeader(addr, h);
    } else {
        // Stale writeback: ownership already moved on (e.g. the writer
        // was NACK-raced). Memory still gets the data; directory state
        // belongs to the newer owner.
        warn("stale writeback from node %u addr 0x%llx", writer,
             static_cast<unsigned long long>(addr));
    }
    return r;
}

HandlerResult
ProtocolEngine::handleReplaceHintAtHome(const Message &msg)
{
    HandlerResult r;
    const NodeId node = msg.src;
    int pos = dir_.removeSharer(msg.addr, node);
    int remaining = dir_.countSharers(msg.addr);
    if (node == self_) {
        r.id = HandlerId::LocalHint;
    } else if (pos <= 0 && remaining == 0) {
        r.id = HandlerId::RemoteHintOnly; // was the only node on the list
    } else {
        r.id = HandlerId::RemoteHintNth;
        r.costParam = pos < 0 ? remaining : pos;
    }
    return r;
}

HandlerResult
ProtocolEngine::handleSwb(const Message &msg)
{
    // Sharing writeback at home: the old owner downgraded and served the
    // requester; both become sharers, memory gets the data.
    HandlerResult r;
    r.id = HandlerId::SwbReceive;
    r.memWrite = true;
    const Addr addr = msg.addr;
    DirHeader h = dir_.header(addr);
    if (!h.dirty || h.owner != msg.src) {
        warn("unexpected Swb from node %u addr 0x%llx", msg.src,
             static_cast<unsigned long long>(addr));
    }
    h.dirty = false;
    h.owner = 0;
    dir_.setHeader(addr, h);
    dir_.addSharer(addr, msg.src);
    if (msg.requester != msg.src)
        dir_.addSharer(addr, msg.requester);
    return r;
}

HandlerResult
ProtocolEngine::handleOwnXfer(const Message &msg)
{
    HandlerResult r;
    r.id = HandlerId::OwnXferReceive;
    DirHeader h = dir_.header(msg.addr);
    if (!h.dirty || h.owner != msg.src) {
        warn("unexpected OwnXfer from node %u addr 0x%llx", msg.src,
             static_cast<unsigned long long>(msg.addr));
    }
    h.dirty = true;
    h.owner = msg.requester;
    dir_.setHeader(msg.addr, h);
    return r;
}

HandlerResult
ProtocolEngine::handleInval(const Message &msg)
{
    // At a sharer: invalidate the processor cache copy and ack to the
    // requester (who counts acks for its pending write).
    HandlerResult r;
    r.id = HandlerId::InvalReceive;
    r.cacheInvalidate = true;
    r.out.push_back({make(MsgType::NetInvalAck, msg.requester, msg.addr,
                          msg.requester),
                     Gate::CacheData});
    return r;
}

HandlerResult
ProtocolEngine::handleReply(const Message &msg)
{
    // Replies at the requesting node: forward data to the processor /
    // account an invalidation ack / schedule a NACK retry. The protocol
    // state here lives in MAGIC's miss-tracking structures, so the
    // handler only classifies; MAGIC performs the bookkeeping.
    HandlerResult r;
    switch (msg.type) {
      case MsgType::NetPut:
        r.id = HandlerId::ReplyToProc;
        r.out.push_back(
            {make(MsgType::PiPut, self_, msg.addr, msg.requester),
             Gate::None});
        break;
      case MsgType::NetPutx:
        r.id = HandlerId::ReplyToProc;
        r.out.push_back({make(MsgType::PiPutx, self_, msg.addr,
                              msg.requester, msg.aux),
                         Gate::None});
        break;
      case MsgType::NetInvalAck:
        r.id = HandlerId::InvalAck;
        break;
      case MsgType::NetNack:
        r.id = HandlerId::NackReceive;
        break;
      default:
        panic("handleReply: bad type %s", msgTypeName(msg.type));
    }
    return r;
}

HandlerResult
ProtocolEngine::handleBlockXfer(const Message &msg)
{
    // Message-passing protocol: block-transfer chunks bypass the
    // coherence directory entirely and stream straight into local
    // memory (the uncached transfer mode of FLASH's message-passing
    // protocol). The final chunk acknowledges the sender; delivery
    // notification to the receiving processor is MAGIC-level
    // bookkeeping (like ack counting).
    HandlerResult r;
    if (msg.type == MsgType::NetBlockAck) {
        r.id = HandlerId::BlockAckReceive;
        return r;
    }
    r.id = HandlerId::BlockXferReceive;
    r.memWrite = true;
    if (msg.aux == 0) { // last chunk of the block
        r.out.push_back(
            {make(MsgType::NetBlockAck, msg.src, msg.addr, msg.requester),
             Gate::None});
    }
    return r;
}

HandlerResult
ProtocolEngine::handleFetchOp(const Message &msg)
{
    // Uncached fetch&op: the home's PP performs the read-modify-write
    // on the memory word directly (no caching, no sharers, no
    // invalidations), so a hot counter costs one round trip however
    // many processors hammer it. The value itself is host-side; the
    // handler models the memory read-modify-write and the reply.
    HandlerResult r;
    if (msg.type == MsgType::NetFetchOpAck) {
        r.id = HandlerId::FetchOpAck;
        return r;
    }
    if (map_.homeOf(msg.addr) != self_) {
        // Requester side of a remote fetch&op: forward to home.
        r.id = HandlerId::FwdToHome;
        r.out.push_back({make(MsgType::NetFetchOp, map_.homeOf(msg.addr),
                              msg.addr, msg.requester),
                         Gate::None});
        return r;
    }
    r.id = HandlerId::FetchOpService;
    // The word-granular read-modify-write is issued by MAGIC as a
    // single short memory access (no line streaming, no allocation).
    if (msg.requester == self_) {
        r.out.push_back({make(MsgType::NetFetchOpAck, self_, msg.addr,
                              msg.requester),
                         Gate::MemData});
    } else {
        r.out.push_back({make(MsgType::NetFetchOpAck, msg.requester,
                              msg.addr, msg.requester),
                         Gate::MemData});
    }
    return r;
}

} // namespace flashsim::protocol
