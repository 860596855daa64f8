/**
 * @file
 * The compute processor's secondary cache.
 *
 * Two-way set associative, 128-byte lines, up to 4 outstanding misses,
 * critical-word-first fills (Section 3.2). Reads are blocking; writes
 * are non-blocking and merge into an outstanding miss to the same line,
 * stalling only on an index conflict or when the MSHRs are exhausted.
 *
 * The processor implements its own cache control, so MAGIC reaches in
 * through explicit operations (invalidate / downgrade / retrieve) that
 * occupy the cache and contend with the processor ("Cont" time).
 */

#ifndef FLASHSIM_CPU_CACHE_HH_
#define FLASHSIM_CPU_CACHE_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "magic/magic.hh"
#include "protocol/message.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace flashsim::cpu
{

struct CacheParams
{
    std::uint32_t sizeBytes = 1u << 20; ///< 1 MB default
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 128;
    int mshrs = 4; ///< outstanding misses
};

class Cache
{
  public:
    /** Inline-only callable: miss continuations fire once per fill, on
     *  the hottest path in the machine — no heap fallback allowed. */
    using Callback = InlineCallback;

    enum class State : std::uint8_t { Invalid, Shared, Exclusive };

    enum class ReadOutcome { Hit, Miss, MshrFull };
    enum class WriteOutcome { Done, Queued, MshrFull, Conflict };

    Cache(EventQueue &eq, NodeId self, const CacheParams &params,
          magic::Magic &magic);

    // -- Processor side (call at the processor's current time) -------------
    /** Earliest time the processor can use the cache (MAGIC ops). */
    Tick freeAt() const { return busyUntil_; }

    /**
     * Read access. Hit: complete. Miss: @p on_fill fires when the first
     * 8 bytes arrive. MshrFull: retry after onMshrFree.
     */
    ReadOutcome read(Addr addr, Callback on_fill);

    /**
     * Write access. Done: line exclusive, proceed. Queued: request or
     * merge launched, proceed (non-blocking write). Conflict/MshrFull:
     * the processor must stall; retry after onMshrFree.
     */
    WriteOutcome write(Addr addr);

    /** One-shot callback the next time any MSHR completes. */
    void onMshrFree(Callback cb);

    // -- MAGIC side ----------------------------------------------------------
    /** Deliver a PiPut / PiPutx / NetNack from MAGIC. */
    void deliver(const protocol::Message &msg);
    bool holdsDirty(Addr addr) const;
    void invalidate(Addr addr);
    void downgrade(Addr addr);
    /** A MAGIC-directed operation occupies the cache until @p until. */
    void busyUntil(Tick until);

    State state(Addr addr) const;

    // -- Statistics -----------------------------------------------------------
    Counter reads = 0;
    Counter writes = 0;
    /** References implied by compute time (busy instructions include
     *  loads/stores that hit in the primary cache and are not simulated
     *  individually); they enter the miss-rate denominator like the
     *  paper's full reference stream does. */
    Counter backgroundHits = 0;
    Counter readMisses = 0;
    Counter writeMisses = 0; ///< including upgrades
    Counter writebacks = 0;
    Counter replaceHints = 0;
    Counter invalsReceived = 0;
    Counter nackRetries = 0;
    Counter timeoutRetries = 0; ///< transaction-timeout re-issues
    /** Fills that arrived after their transaction was retired (late
     *  replies to a request the timeout path already re-issued or gave
     *  up on); installed benignly instead of panicking. Only possible
     *  when txnRetryTimeout is enabled. */
    Counter lateFills = 0;
    Counter degradedTxns = 0; ///< retries exhausted; completed degraded
    Distribution missLatency; ///< read-miss service time (cycles)

    /** One transaction that exhausted its retry budget. */
    struct DegradedTxn
    {
        Addr line;
        std::uint32_t retries;
    };
    std::vector<DegradedTxn> degradedLog;

    /** True while completeMshr runs for a budget-exhausted transaction
     *  (the processor's fill hooks use this to count degraded resumes). */
    bool completingDegraded() const { return completingDegraded_; }

    double
    missRate() const
    {
        return ratio(static_cast<double>(readMisses + writeMisses),
                     static_cast<double>(reads + writes +
                                         backgroundHits));
    }

  private:
    /** Tag/LRU metadata of one way. Kept separate from the 1-byte
     *  state array so constructing a cache only zeroes states_ (8 KB)
     *  instead of value-initializing 24 bytes per way (~200 KB for the
     *  default 1 MB cache — a dominant cost when a machine is built per
     *  benchmark iteration). An entry is meaningful only while its
     *  state is not Invalid; installLine writes it before validating. */
    struct Way
    {
        Addr tag;
        std::uint64_t lru;
    };

    struct Mshr
    {
        bool valid = false;
        Addr line = 0; ///< line base address
        protocol::MsgType sentType = protocol::MsgType::PiGet;
        bool needsUpgrade = false; ///< read fill must be followed by GETX
        /** An invalidation raced ahead of our read reply (it is not
         *  gated on memory data, the reply is): the fill satisfies the
         *  blocked read with its critical word but the line must not
         *  stay resident. */
        bool invalOnFill = false;
        /** Consecutive NACKs for this miss (exponential backoff). */
        std::uint32_t nackCount = 0;
        /** Transaction-timeout re-issues so far (capped by the retry
         *  budget; orthogonal to nackCount — a NACK is a live reply,
         *  a timeout means the request died outright). */
        std::uint32_t timeoutRetries = 0;
        Tick issued = 0;
        /** Armed iff txnRetryTimeout != 0 and the miss is outstanding. */
        EventQueue::TimerId timeout{};
        std::vector<Callback> readWaiters;
    };

    /** Index of @p addr's way, or -1 when not resident. */
    std::int32_t findWay(Addr addr) const;
    /** Line base address held by way @p w (its tag must be valid). */
    Addr wayLine(std::size_t w) const;
    /**
     * The one writer of states_. With a coherence oracle attached, each
     * change is reported to it for its holder index; the line is taken
     * from the way's tag, so an install writes the tag first and an
     * eviction clears the victim's old line before the tag is reused.
     */
    void setState(std::size_t w, State st);
    Mshr *findMshr(Addr line);
    Mshr *allocMshr();
    std::uint32_t setIndex(Addr addr) const;
    void sendRequest(protocol::MsgType t, Addr line, bool retry);
    void fill(const protocol::Message &msg);
    void installLine(Addr line, State st);
    void completeMshr(Mshr &m);
    /** Arm (or re-arm) @p m's transaction timeout at the base interval
     *  shifted by its retry count; no-op when timeouts are disabled. */
    void armTxnTimeout(Mshr &m);
    /** The transaction timeout fired for @p line: re-issue the request
     *  with backoff, or complete degraded once the budget is spent. */
    void onTxnTimeout(Addr line);

    EventQueue &eq_;
    NodeId self_;
    CacheParams p_;
    magic::Magic &magic_;

    std::uint32_t numSets_;
    std::uint32_t lineShift_ = 0; ///< log2(lineBytes)
    std::uint32_t setShift_ = 0;  ///< log2(numSets_)
    std::uint64_t lruClock_ = 0;
    std::vector<State> states_; ///< per-way state; Invalid = 0
    std::unique_ptr<Way[]> ways_; ///< valid iff states_[i] != Invalid
    std::vector<Mshr> mshrs_;
    Tick busyUntil_ = 0;
    bool completingDegraded_ = false;
    std::vector<Callback> mshrFreeWaiters_;
    /** Scratch the completed MSHR's waiter list is swapped into before
     *  running (callbacks may re-enter the cache); the swap hands the
     *  scratch's spare capacity back, so steady state never allocates. */
    std::vector<Callback> fillScratch_;
};

} // namespace flashsim::cpu

#endif // FLASHSIM_CPU_CACHE_HH_
