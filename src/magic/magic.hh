/**
 * @file
 * The MAGIC node controller model.
 *
 * All transactions in a FLASH node pass through MAGIC: requests from
 * the processor (PI), messages from the network (NI), and everything
 * the protocol generates locally. The model implements the control
 * macropipeline of Figure 2.2:
 *
 *   interface inbound -> incoming queue -> inbox (arbitration + jump
 *   table + speculative memory initiation) -> protocol processor ->
 *   outbox -> interface outbound
 *
 * with the data-transfer logic expressed as launch gates: a data-
 * carrying reply leaves as soon as both its header has cleared the
 * control pipeline and its data is staged (memory first-word time or
 * processor-cache retrieval time), which is what the multiported,
 * per-word-valid data buffers buy the real chip.
 *
 * The ideal machine (params.ideal) is the same pipeline with all
 * macropipeline stages at zero cycles and infinite queues.
 */

#ifndef FLASHSIM_MAGIC_MAGIC_HH_
#define FLASHSIM_MAGIC_MAGIC_HH_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "magic/data_buffer.hh"
#include "magic/jump_table.hh"
#include "magic/params.hh"
#include "magic/timing_model.hh"
#include "memsys/memory_controller.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "protocol/pp_programs.hh"
#include "sim/event_queue.hh"
#include "sim/flat_table.hh"
#include "sim/stats.hh"

namespace flashsim::verify
{
class Sentinel;
}

namespace flashsim::magic
{

/** Callbacks wiring MAGIC to the rest of its node and the network. */
struct MagicHooks
{
    /** Deliver a Pi* message (data reply, nack) to the processor cache;
     *  called at the time the first 8 bytes are on the processor bus. */
    std::function<void(const protocol::Message &)> toProcessor;
    /** Hand a message to the network (transit charged by the network). */
    std::function<void(const protocol::Message &)> toNetwork;
    /** Hand a message to the network with an explicit future departure
     *  time (outbox completion), sparing the event that would otherwise
     *  only exist to call toNetwork at that time. */
    std::function<void(const protocol::Message &, Tick)> toNetworkAt;
    /** Probe: local processor cache holds the line dirty. */
    std::function<bool(Addr)> cacheHoldsDirty;
    /** Invalidate the line in the local processor cache. */
    std::function<void(Addr)> cacheInvalidate;
    /** Downgrade the local processor cache line to shared. */
    std::function<void(Addr)> cacheDowngrade;
    /** The processor cache is busy with a MAGIC-side operation until
     *  @p until (source of the "Cont" execution-time category). */
    std::function<void(Tick until)> cacheBusy;
    /** A message-passing block finished landing in local memory. */
    std::function<void(Addr base)> blockReceived;
    /** A block transfer this node sent was fully received. */
    std::function<void(Addr base)> blockAcked;
    /** A fetch&op this node issued completed (result arrived). */
    std::function<void(Addr addr)> fetchOpDone;
};

class Magic
{
  public:
    Magic(EventQueue &eq, NodeId self, const MagicParams &params,
          const protocol::AddressMap &map,
          const protocol::HandlerPrograms *programs, MagicHooks hooks);
    ~Magic();

    Magic(const Magic &) = delete;
    Magic &operator=(const Magic &) = delete;

    /** A processor request appears on the bus at MAGIC's pins (the
     *  miss-detect and bus-transit cycles are charged by the cache). */
    void fromProcessor(const protocol::Message &msg);

    /** fromProcessor as it will stand @p delay cycles from now, folded
     *  into one event: the request lands in the PI queue at
     *  now + delay + piInbound directly. Falls back to the two-stage
     *  path under an active fault injector, whose inbound-stall clamp
     *  must observe arrivals in order. */
    void fromProcessorAfter(const protocol::Message &msg, Cycles delay);

    /** A network message arrives at the NI pins. */
    void fromNetwork(const protocol::Message &msg);

    /**
     * Initiate an uncached block transfer (the message-passing
     * protocol): stream @p bytes starting at @p addr to @p dest. The
     * PP sets the transfer up and the data-transfer logic pipelines
     * one line-sized chunk per local memory read; the receiver's
     * handler deposits chunks straight into its memory and the final
     * chunk is acknowledged back (hooks.blockAcked).
     */
    void sendBlock(NodeId dest, Addr addr, std::uint32_t bytes);

    memsys::MemoryController &memory() { return mem_; }
    const memsys::MemoryController &memory() const { return mem_; }
    protocol::DirectoryStore &directory() { return dir_; }
    const MagicParams &params() const { return params_; }
    NodeId self() const { return self_; }

    /** The PP emulator timing model, if in use (Table 5.2 stats). */
    const PpTimingModel *ppModel() const { return ppModel_; }

    JumpTable &jumpTable() { return jumpTable_; }

    /** Attach the machine's verification sentinel (null = none). MAGIC
     *  reports handler completions to it and asks its injector for
     *  perturbations; the hot path costs one null check when absent. */
    void attachSentinel(verify::Sentinel *s) { sentinel_ = s; }
    verify::Sentinel *sentinel() const { return sentinel_; }

    // -- Statistics ---------------------------------------------------------
    Occupancy ppOcc;        ///< protocol processor busy time
    Counter invocations = 0;    ///< handler invocations
    Counter specIssued = 0;     ///< speculative memory reads launched
    Counter specUseless = 0;    ///< ... whose data was not needed
    Counter nacksSent = 0;
    Counter nacksReceived = 0;
    Counter msgsIn = 0;
    Counter micColdMisses = 0;
    Counter queueStallCycles = 0; ///< cycles messages waited for the PP
    Counter blockChunksSent = 0;
    Counter blockChunksReceived = 0;
    Counter blocksCompleted = 0;  ///< transfers fully received here
    Counter reqDropsInjected = 0; ///< inbound requests killed at the NI

    /** Read-miss service classification (Tables 3.3 / 4.1), counted at
     *  the home node when the servicing handler runs. */
    struct MissClasses
    {
        Counter localClean = 0;
        Counter localDirtyRemote = 0;
        Counter remoteClean = 0;
        Counter remoteDirtyHome = 0;
        Counter remoteDirtyRemote = 0;

        Counter
        total() const
        {
            return localClean + localDirtyRemote + remoteClean +
                   remoteDirtyHome + remoteDirtyRemote;
        }
    };
    MissClasses readClasses;

    /** Per-handler invocation counts and cycles (Table 3.4). */
    std::array<Counter, protocol::kNumHandlerIds> handlerCount{};
    std::array<Counter, protocol::kNumHandlerIds> handlerCycles{};

    /**
     * Per-page remote-request counts (params.monitorPages): the
     * protocol-processor-side performance monitoring the paper names as
     * a key advantage of flexibility (Sections 1 and 4.4), usable to
     * drive page migration policies. Keyed by page index; stored in an
     * open-addressing flat table so the handler-path increment is an
     * array probe, not a hash-map node walk.
     */
    FlatCounterMap pageRemoteAccesses;

  private:
    struct Pending
    {
        protocol::Message msg;
        Tick enqueued;
        /** The inbox issued the speculative memory read on arrival
         *  (macropipeline: this overlaps queued messages' memory time
         *  with the PP's processing of earlier messages). */
        bool specIssued = false;
        Tick specReady = 0;
    };

    /**
     * One inbound queue: a vector read from a head index, with the
     * storage recycled (cleared, capacity kept) each time the queue
     * drains, as EventQueue's buckets are — a deque would allocate a
     * node block as it grows. A queue that stays busy is compacted once
     * its consumed prefix outweighs the live entries, so it never grows
     * past twice its peak depth.
     */
    struct InQueue
    {
        std::vector<Pending> items;
        std::size_t head = 0;

        bool empty() const { return head == items.size(); }
        void push(Pending p) { items.push_back(std::move(p)); }
        Pending pop();
    };

    void enqueue(InQueue &q, const protocol::Message &msg);
    void tryDispatch();
    void runHandler(const Pending &pending);
    void launch(const protocol::Message &msg, Tick pp_end, Tick gate);
    /** Injector-forced NACK of a request at the home node; bypasses the
     *  protocol engine and the PP timing model entirely. */
    void injectedNack(const Pending &pending, bool release_buffer);
    /** Inbound arrival time with injected stall, FIFO-clamped per
     *  queue so no message overtakes an earlier one. */
    Tick inboundArrival(Cycles base, Tick &last);

    EventQueue &eq_;
    NodeId self_;
    MagicParams params_;
    const protocol::AddressMap &map_;
    MagicHooks hooks_;

    protocol::DirectoryStore dir_;
    memsys::MemoryController mem_;
    JumpTable jumpTable_;
    DataBufferPool buffers_;

    /** CacheProbe adapter over the hook. */
    class Probe : public protocol::CacheProbe
    {
      public:
        explicit Probe(const Magic &m) : m_(m) {}
        bool
        holdsDirty(Addr addr) const override
        {
            return m_.hooks_.cacheHoldsDirty(addr);
        }

      private:
        const Magic &m_;
    };
    Probe probe_;
    protocol::ProtocolEngine engine_;

    std::unique_ptr<HandlerTimingModel> timing_;
    PpTimingModel *ppModel_ = nullptr; ///< non-null iff usePpEmulator

    InQueue piQueue_;
    InQueue niQueue_;
    bool ppBusy_ = false;
    bool pickPiFirst_ = true;

    verify::Sentinel *sentinel_ = nullptr;
    /** Last injector-stalled arrival per inbound queue (FIFO clamps). */
    Tick lastPiArrival_ = 0;
    Tick lastNiArrival_ = 0;
};

} // namespace flashsim::magic

#endif // FLASHSIM_MAGIC_MAGIC_HH_
