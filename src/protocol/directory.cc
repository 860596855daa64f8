#include "protocol/directory.hh"

#include "ppisa/instruction.hh"
#include "sim/logging.hh"

namespace flashsim::protocol
{

using ppisa::fieldMask;
namespace df = dirfield;

DirHeader
DirHeader::unpack(std::uint64_t w)
{
    DirHeader h;
    h.dirty = (w >> df::kDirtyBit) & 1;
    h.pending = (w >> df::kPendingBit) & 1;
    h.head = static_cast<std::uint32_t>((w >> df::kHeadLo) &
                                        fieldMask(0, df::kHeadWidth));
    h.owner = static_cast<NodeId>((w >> df::kOwnerLo) &
                                  fieldMask(0, df::kOwnerWidth));
    return h;
}

std::uint64_t
DirHeader::pack() const
{
    std::uint64_t w = 0;
    w |= static_cast<std::uint64_t>(dirty) << df::kDirtyBit;
    w |= static_cast<std::uint64_t>(pending) << df::kPendingBit;
    w |= (static_cast<std::uint64_t>(head) & fieldMask(0, df::kHeadWidth))
         << df::kHeadLo;
    w |= (static_cast<std::uint64_t>(owner) & fieldMask(0, df::kOwnerWidth))
         << df::kOwnerLo;
    return w;
}

std::uint64_t
LinkEntry::pack() const
{
    return (static_cast<std::uint64_t>(node) & 0xffff) |
           ((static_cast<std::uint64_t>(next) & 0xffff) << 16);
}

DirectoryStore::DirectoryStore(std::uint32_t pool_limit)
    : poolLimit_(pool_limit)
{
    // The link pool is populated sequentially from index 1; pre-size a
    // first chunk so early handler activity never reallocates.
    links_.reserve(256);
    ackTable_.assign(kAckTableEntries, 0);
    mirrorFreeHead();
}

void
DirectoryStore::setHeaderWord(std::uint64_t w, std::uint64_t v)
{
    std::uint64_t page = w / kPageWords;
    if (page >= headerPages_.size())
        headerPages_.resize(page + 1);
    if (!headerPages_[page]) {
        headerPages_[page] =
            std::make_unique<std::uint64_t[]>(kPageWords);
        // make_unique value-initializes: the page reads as zeros, the
        // same as absent keys in the historical map-backed store.
    }
    headerPages_[page][w % kPageWords] = v;
}

void
DirectoryStore::setLinkWord(std::uint64_t idx, std::uint64_t v)
{
    if (idx >= links_.size()) {
        std::size_t want = links_.size() < 128 ? 256 : links_.size() * 2;
        if (want <= idx)
            want = static_cast<std::size_t>(idx) + 1;
        links_.resize(want, 0);
    }
    links_[idx] = v;
}

std::uint64_t
DirectoryStore::loadWord(Addr a) const
{
    // Region decoder: header page, link pool, ack table, or overflow.
    // Misaligned addresses never alias onto a word slot (the historical
    // store keyed on the raw address), so they take the overflow path.
    if ((a & 7) == 0) {
        if (a >= kDirHeaderBase && a < kLinkPoolBase) {
            std::uint64_t w = (a - kDirHeaderBase) >> 3;
            if (w < kMaxHeaderWords)
                return headerWord(w);
        } else if (a >= kLinkPoolBase && a < kAckTableBase) {
            std::uint64_t w = (a - kLinkPoolBase) >> 3;
            if (w < kMaxLinkWords)
                return linkWord(w);
        } else if (a >= kAckTableBase) {
            std::uint64_t w = (a - kAckTableBase) >> 3;
            if (w < kAckTableEntries)
                return ackTable_[w];
        }
    }
    auto it = overflow_.find(a);
    return it == overflow_.end() ? 0 : it->second;
}

void
DirectoryStore::storeWord(Addr a, std::uint64_t v)
{
    if ((a & 7) == 0) {
        if (a >= kDirHeaderBase && a < kLinkPoolBase) {
            std::uint64_t w = (a - kDirHeaderBase) >> 3;
            if (w < kMaxHeaderWords) {
                setHeaderWord(w, v);
                return;
            }
        } else if (a >= kLinkPoolBase && a < kAckTableBase) {
            std::uint64_t w = (a - kLinkPoolBase) >> 3;
            if (w < kMaxLinkWords) {
                setLinkWord(w, v);
                return;
            }
        } else if (a >= kAckTableBase) {
            std::uint64_t w = (a - kAckTableBase) >> 3;
            if (w < kAckTableEntries) {
                ackTable_[w] = v;
                return;
            }
        }
    }
    overflow_[a] = v;
}

DirHeader
DirectoryStore::header(Addr line) const
{
    std::uint64_t w = lineNumber(line);
    if (w < kMaxHeaderWords)
        return DirHeader::unpack(headerWord(w));
    return DirHeader::unpack(loadWord(headerAddr(line)));
}

void
DirectoryStore::setHeader(Addr line, const DirHeader &h)
{
    std::uint64_t w = lineNumber(line);
    if (w < kMaxHeaderWords)
        setHeaderWord(w, h.pack());
    else
        storeWord(headerAddr(line), h.pack());
}

LinkEntry
DirectoryStore::link(std::uint32_t idx) const
{
    return LinkEntry::unpack(linkWord(idx));
}

void
DirectoryStore::setLink(std::uint32_t idx, const LinkEntry &e)
{
    setLinkWord(idx, e.pack());
}

std::uint32_t
DirectoryStore::allocLink()
{
    std::uint32_t idx = freeHead_;
    std::uint32_t next = link(idx).next;
    if (next == 0) {
        if (nextUnused_ >= poolLimit_)
            fatal("DirectoryStore: sharer link pool exhausted (%u entries)",
                  poolLimit_);
        next = nextUnused_++;
        setLink(next, LinkEntry{0, 0});
    }
    freeHead_ = next;
    mirrorFreeHead();
    ++liveLinks_;
    return idx;
}

void
DirectoryStore::freeLink(std::uint32_t idx)
{
    setLink(idx, LinkEntry{0, freeHead_});
    freeHead_ = idx;
    mirrorFreeHead();
    --liveLinks_;
}

void
DirectoryStore::mirrorFreeHead()
{
    // The free-list head lives at link index 0 so PP handler programs can
    // load/store it like the real protocol does.
    setLinkWord(0, freeHead_);
}

void
DirectoryStore::addSharer(Addr line, NodeId node)
{
    DirHeader h = header(line);
    std::uint32_t idx = allocLink();
    setLink(idx, LinkEntry{node, h.head});
    h.head = idx;
    setHeader(line, h);
}

int
DirectoryStore::removeSharer(Addr line, NodeId node)
{
    DirHeader h = header(line);
    std::uint32_t idx = h.head;
    std::uint32_t prev = 0;
    int pos = 0;
    while (idx != 0) {
        LinkEntry e = link(idx);
        if (e.node == node) {
            if (prev == 0) {
                h.head = e.next;
                setHeader(line, h);
            } else {
                LinkEntry pe = link(prev);
                pe.next = e.next;
                setLink(prev, pe);
            }
            freeLink(idx);
            return pos;
        }
        prev = idx;
        idx = e.next;
        ++pos;
    }
    return -1;
}

std::vector<NodeId>
DirectoryStore::sharers(Addr line) const
{
    std::vector<NodeId> out;
    forEachSharer(line, [&out](NodeId n) { out.push_back(n); });
    return out;
}

bool
DirectoryStore::isSharer(Addr line, NodeId node) const
{
    std::uint32_t idx = header(line).head;
    while (idx != 0) {
        LinkEntry e = link(idx);
        if (e.node == node)
            return true;
        idx = e.next;
    }
    return false;
}

int
DirectoryStore::countSharers(Addr line) const
{
    int n = 0;
    std::uint32_t idx = header(line).head;
    while (idx != 0) {
        ++n;
        idx = link(idx).next;
    }
    return n;
}

void
DirectoryStore::clearSharers(Addr line)
{
    DirHeader h = header(line);
    std::uint32_t idx = h.head;
    while (idx != 0) {
        std::uint32_t next = link(idx).next;
        freeLink(idx);
        idx = next;
    }
    h.head = 0;
    setHeader(line, h);
}

} // namespace flashsim::protocol
