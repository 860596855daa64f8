#include "cpu/cache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "verify/sentinel.hh"

namespace flashsim::cpu
{

using protocol::Message;
using protocol::MsgType;

Cache::Cache(EventQueue &eq, NodeId self, const CacheParams &params,
             magic::Magic &magic)
    : eq_(eq), self_(self), p_(params), magic_(magic)
{
    numSets_ = p_.sizeBytes / (p_.assoc * p_.lineBytes);
    if (numSets_ == 0 || (numSets_ & (numSets_ - 1)) != 0)
        fatal("Cache: set count %u must be a nonzero power of two",
              numSets_);
    if (p_.lineBytes == 0 || (p_.lineBytes & (p_.lineBytes - 1)) != 0)
        fatal("Cache: line size %u must be a nonzero power of two",
              p_.lineBytes);
    // Tag/set math runs on every access: precompute shift widths so
    // the hot path never divides by a runtime value.
    for (std::uint32_t b = p_.lineBytes; b > 1; b >>= 1)
        ++lineShift_;
    for (std::uint32_t ns = numSets_; ns > 1; ns >>= 1)
        ++setShift_;
    const std::size_t nways =
        static_cast<std::size_t>(numSets_) * p_.assoc;
    states_.assign(nways, State::Invalid);
    // Deliberately default-initialized (uninitialized): a Way is only
    // read once its state leaves Invalid, and installLine fills it
    // first. Zeroing ~200 KB per construction is what this avoids.
    ways_.reset(new Way[nways]);
    mshrs_.resize(static_cast<std::size_t>(p_.mshrs));
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>(addr >> lineShift_) &
           (numSets_ - 1);
}

std::int32_t
Cache::findWay(Addr addr) const
{
    Addr tag = addr >> lineShift_ >> setShift_;
    const std::size_t base =
        static_cast<std::size_t>(setIndex(addr)) * p_.assoc;
    for (std::uint32_t w = 0; w < p_.assoc; ++w) {
        if (states_[base + w] != State::Invalid &&
            ways_[base + w].tag == tag)
            return static_cast<std::int32_t>(base + w);
    }
    return -1;
}

Addr
Cache::wayLine(std::size_t w) const
{
    const Addr set = w / p_.assoc;
    return ((ways_[w].tag << setShift_) + set) << lineShift_;
}

void
Cache::setState(std::size_t w, State st)
{
    if (states_[w] == st)
        return;
    states_[w] = st;
    if (verify::Sentinel *s = magic_.sentinel())
        s->cacheStateChanged(self_, wayLine(w), static_cast<int>(st));
}

Cache::Mshr *
Cache::findMshr(Addr line)
{
    for (Mshr &m : mshrs_)
        if (m.valid && m.line == line)
            return &m;
    return nullptr;
}

Cache::Mshr *
Cache::allocMshr()
{
    for (Mshr &m : mshrs_)
        if (!m.valid)
            return &m;
    return nullptr;
}

void
Cache::sendRequest(MsgType t, Addr line, bool retry)
{
    Message m;
    m.type = t;
    m.src = self_;
    m.dest = self_;
    m.requester = self_;
    m.addr = line;
    const magic::MagicParams &mp = magic_.params();
    // Retries skip miss detection; first issues pay detect + bus transit.
    Cycles delay = retry ? 0 : mp.missDetect + mp.busTransit;
    magic_.fromProcessorAfter(m, delay);
}

Cache::ReadOutcome
Cache::read(Addr addr, Callback on_fill)
{
    ++reads;
    Addr line = lineBase(addr);
    if (std::int32_t w = findWay(addr); w >= 0) {
        ways_[w].lru = ++lruClock_;
        return ReadOutcome::Hit;
    }
    ++readMisses;
    if (Mshr *m = findMshr(line)) {
        // Merge into the outstanding miss; the read blocks until fill.
        m->readWaiters.push_back(std::move(on_fill));
        return ReadOutcome::Miss;
    }
    Mshr *m = allocMshr();
    if (m == nullptr) {
        --readMisses; // counted on the successful retry instead
        --reads;
        return ReadOutcome::MshrFull;
    }
    m->valid = true;
    m->line = line;
    m->sentType = MsgType::PiGet;
    m->needsUpgrade = false;
    m->invalOnFill = false;
    m->nackCount = 0;
    m->timeoutRetries = 0;
    m->issued = eq_.now();
    m->timeout = {};
    m->readWaiters.clear();
    m->readWaiters.push_back(std::move(on_fill));
    if (verify::Sentinel *s = magic_.sentinel())
        s->txnStart(self_, line);
    armTxnTimeout(*m);
    sendRequest(MsgType::PiGet, line, false);
    return ReadOutcome::Miss;
}

Cache::WriteOutcome
Cache::write(Addr addr)
{
    ++writes;
    Addr line = lineBase(addr);
    std::int32_t w = findWay(addr);
    if (w >= 0 && states_[w] == State::Exclusive) {
        ways_[w].lru = ++lruClock_;
        return WriteOutcome::Done;
    }
    ++writeMisses;
    if (Mshr *m = findMshr(line)) {
        // Same index, same tag: merge with the outstanding miss.
        if (m->sentType == MsgType::PiGet)
            m->needsUpgrade = true;
        return WriteOutcome::Queued;
    }
    // Same index, different tag, with a miss outstanding: stall.
    std::uint32_t set = setIndex(addr);
    for (const Mshr &m : mshrs_) {
        if (m.valid && setIndex(m.line) == set && m.line != line) {
            --writes;
            --writeMisses;
            return WriteOutcome::Conflict;
        }
    }
    Mshr *m = allocMshr();
    if (m == nullptr) {
        --writes;
        --writeMisses;
        return WriteOutcome::MshrFull;
    }
    m->valid = true;
    m->line = line;
    m->sentType = MsgType::PiGetx;
    m->needsUpgrade = false;
    m->invalOnFill = false;
    m->nackCount = 0;
    m->timeoutRetries = 0;
    m->issued = eq_.now();
    m->timeout = {};
    m->readWaiters.clear();
    if (verify::Sentinel *s = magic_.sentinel())
        s->txnStart(self_, line);
    armTxnTimeout(*m);
    sendRequest(MsgType::PiGetx, line, false);
    return WriteOutcome::Queued;
}

void
Cache::onMshrFree(Callback cb)
{
    mshrFreeWaiters_.push_back(std::move(cb));
}

void
Cache::installLine(Addr line, State st)
{
    // An upgrade fill (or a refetch racing an invalidation) may find the
    // line already resident: promote in place, never duplicate the tag.
    if (std::int32_t w = findWay(line); w >= 0) {
        if (st == State::Exclusive)
            setState(static_cast<std::size_t>(w), State::Exclusive);
        ways_[w].lru = ++lruClock_;
        return;
    }
    Addr tag = line >> lineShift_ >> setShift_;
    const std::size_t base =
        static_cast<std::size_t>(setIndex(line)) * p_.assoc;
    std::size_t victim = base;
    bool have = false;
    for (std::uint32_t w = 0; w < p_.assoc; ++w) {
        if (states_[base + w] == State::Invalid) {
            victim = base + w;
            break;
        }
        if (!have || ways_[base + w].lru < ways_[victim].lru)
            victim = base + w;
        have = true;
    }
    if (states_[victim] == State::Exclusive) {
        ++writebacks;
        sendRequest(MsgType::PiWriteback, wayLine(victim), true);
    } else if (states_[victim] == State::Shared) {
        ++replaceHints;
        sendRequest(MsgType::PiReplaceHint, wayLine(victim), true);
    }
    setState(victim, State::Invalid);
    ways_[victim].tag = tag;
    setState(victim, st);
    ways_[victim].lru = ++lruClock_;
}

void
Cache::armTxnTimeout(Mshr &m)
{
    const magic::MagicParams &mp = magic_.params();
    if (mp.txnRetryTimeout == 0)
        return;
    // Exponential backoff per re-issue, capped at 16x base.
    Cycles delay = mp.txnRetryTimeout
                   << std::min(m.timeoutRetries, 4u);
    Tick when = eq_.now() + delay;
    if (m.timeout.valid() && eq_.rearmTimer(m.timeout, when))
        return;
    Addr line = m.line;
    m.timeout =
        eq_.armTimer(when, [this, line] { onTxnTimeout(line); });
}

void
Cache::onTxnTimeout(Addr line)
{
    Mshr *m = findMshr(line);
    if (m == nullptr)
        return; // transaction completed as the timer fired
    const magic::MagicParams &mp = magic_.params();
    if (m->timeoutRetries >= mp.txnRetryBudget) {
        // Budget spent: complete the transaction degraded so the
        // processor is not wedged forever on a dead request. Blocked
        // readers resume without data; a later touch of the line is an
        // ordinary fresh miss. The run is reported as degraded.
        ++degradedTxns;
        degradedLog.push_back({m->line, m->timeoutRetries});
        completingDegraded_ = true;
        completeMshr(*m);
        completingDegraded_ = false;
        return;
    }
    ++m->timeoutRetries;
    ++timeoutRetries;
    // The retry restarts the transaction's clock for the watchdog:
    // legitimate recovery must not read as a stuck transaction.
    if (verify::Sentinel *s = magic_.sentinel())
        s->txnRetry(self_, line);
    armTxnTimeout(*m);
    sendRequest(m->sentType, m->line, true);
}

void
Cache::completeMshr(Mshr &m)
{
    if (m.timeout.valid()) {
        eq_.cancelTimer(m.timeout);
        m.timeout = {};
    }
    if (verify::Sentinel *s = magic_.sentinel())
        s->txnRetire(self_, m.line);
    // Swap (not move) so the MSHR inherits the scratch's spare buffer:
    // steady-state completion is allocation-free. Fills only arrive via
    // event-queue deliveries, never from inside these callbacks, so the
    // scratch cannot be re-entered while we iterate it.
    fillScratch_.swap(m.readWaiters);
    m.valid = false;
    // Wake the processor retry hook first so a stalled access can claim
    // the freed MSHR, then release the blocked readers.
    std::vector<Callback> hooks = std::move(mshrFreeWaiters_);
    mshrFreeWaiters_.clear();
    for (Callback &cb : hooks)
        cb();
    for (Callback &cb : fillScratch_)
        cb();
    fillScratch_.clear();
}

void
Cache::fill(const Message &msg)
{
    Addr line = lineBase(msg.addr);
    Mshr *m = findMshr(line);
    if (m == nullptr) {
        if (magic_.params().txnRetryTimeout != 0) {
            // A late reply to a transaction the timeout path already
            // re-issued or completed degraded (e.g. the original and
            // the retry both produced fills). Install benignly so the
            // data is not wasted; coherence is unaffected because the
            // directory already recorded this node.
            ++lateFills;
            installLine(line, msg.type == MsgType::PiPutx
                                  ? State::Exclusive
                                  : State::Shared);
            return;
        }
        panic("Cache %u: fill for line 0x%llx without MSHR", self_,
              static_cast<unsigned long long>(line));
    }
    missLatency.sample(static_cast<double>(eq_.now() - m->issued));

    State st =
        msg.type == MsgType::PiPutx ? State::Exclusive : State::Shared;
    installLine(line, st);

    if (m->invalOnFill && st == State::Shared) {
        // A racing invalidation already hit this line: the blocked read
        // consumes the critical word, but the copy must not persist.
        if (std::int32_t w = findWay(line); w >= 0)
            setState(static_cast<std::size_t>(w), State::Invalid);
    }

    if (m->needsUpgrade && st == State::Shared) {
        // A write merged into this read miss: chase the fill with an
        // upgrade. The MSHR stays live for the GETX; readers proceed.
        m->sentType = MsgType::PiGetx;
        m->needsUpgrade = false;
        m->invalOnFill = false;
        m->nackCount = 0;
        m->timeoutRetries = 0;
        m->issued = eq_.now();
        armTxnTimeout(*m);
        sendRequest(MsgType::PiGetx, line, true);
        fillScratch_.swap(m->readWaiters);
        for (Callback &cb : fillScratch_)
            cb();
        fillScratch_.clear();
        return;
    }
    completeMshr(*m);
}

void
Cache::deliver(const Message &msg)
{
    switch (msg.type) {
      case MsgType::PiPut:
      case MsgType::PiPutx:
        fill(msg);
        break;
      case MsgType::NetNack: {
        Addr line = lineBase(msg.addr);
        Mshr *m = findMshr(line);
        if (m == nullptr)
            break; // request already satisfied (stale NACK)
        ++nackRetries;
        MsgType t = m->sentType;
        // Exponential backoff with a per-node offset: hot lines (locks,
        // barrier counters) otherwise produce NACK storms where the
        // line ownership keeps moving before any retry can catch it.
        std::uint32_t shift = std::min(m->nackCount, 5u);
        ++m->nackCount;
        Cycles wait = (magic_.params().nackRetryBackoff << shift) +
                      (self_ * 7) % 29;
        // A NACK is proof the request is alive at the home: push the
        // transaction timeout out so the NACK/retry loop is never
        // mistaken for a dead request.
        armTxnTimeout(*m);
        eq_.schedule(wait,
                     [this, t, line] { sendRequest(t, line, true); });
        break;
      }
      default:
        panic("Cache %u: unexpected delivery %s", self_,
              msg.toString().c_str());
    }
}

bool
Cache::holdsDirty(Addr addr) const
{
    std::int32_t w = findWay(addr);
    return w >= 0 && states_[w] == State::Exclusive;
}

void
Cache::invalidate(Addr addr)
{
    ++invalsReceived;
    if (std::int32_t w = findWay(addr); w >= 0)
        setState(static_cast<std::size_t>(w), State::Invalid);
    // The invalidation may have raced ahead of a read reply in flight
    // to this node (replies wait for memory data, invals do not).
    if (Mshr *m = findMshr(lineBase(addr))) {
        if (m->sentType == protocol::MsgType::PiGet)
            m->invalOnFill = true;
    }
}

void
Cache::downgrade(Addr addr)
{
    if (std::int32_t w = findWay(addr); w >= 0) {
        if (states_[w] == State::Exclusive)
            setState(static_cast<std::size_t>(w), State::Shared);
    }
}

void
Cache::busyUntil(Tick until)
{
    busyUntil_ = std::max(busyUntil_, until);
}

Cache::State
Cache::state(Addr addr) const
{
    std::int32_t w = findWay(addr);
    return w >= 0 ? states_[w] : State::Invalid;
}

} // namespace flashsim::cpu
