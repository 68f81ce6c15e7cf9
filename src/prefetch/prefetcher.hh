/**
 * @file
 * Common interface for instruction prefetchers that run alongside FDIP.
 *
 * The simulator drives prefetchers with three event streams — retired
 * instructions, L1-I demand-block accesses, and cycle ticks (each
 * paired with a next-event query, nextTickAt) — and
 * drains their request queue into the cache hierarchy at a configurable
 * bandwidth. Prefetchers that keep bulk metadata in main memory (the
 * Hierarchical Prefetcher) access it through the MetadataMemory service
 * so that latency and bandwidth are accounted against regular traffic.
 */

#ifndef HP_PREFETCH_PREFETCHER_HH
#define HP_PREFETCH_PREFETCHER_HH

#include <cstdint>
#include <string>

#include "isa/inst.hh"
#include "obs/event_sink.hh"
#include "stats/registry.hh"
#include "util/ring_buffer.hh"
#include "util/serialize.hh"
#include "util/types.hh"

namespace hp
{

/**
 * Models the in-memory metadata path. Implemented by the simulator:
 * reads return the cycle at which the data is available (LLC or DRAM
 * latency), and both directions are charged to memory bandwidth.
 */
class MetadataMemory
{
  public:
    virtual ~MetadataMemory() = default;

    /** Reads @p bytes of metadata; returns the data-ready cycle. */
    virtual Cycle metadataRead(std::uint64_t bytes, Cycle now) = 0;

    /** Writes @p bytes of metadata (posted; no completion needed). */
    virtual void metadataWrite(std::uint64_t bytes, Cycle now) = 0;
};

/** A metadata service that is free and instant (for unit tests). */
class NullMetadataMemory : public MetadataMemory
{
  public:
    Cycle metadataRead(std::uint64_t, Cycle now) override { return now; }
    void metadataWrite(std::uint64_t, Cycle) override {}
};

/** Abstract instruction prefetcher. */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    virtual std::string name() const = 0;

    /** On-chip metadata storage in bits (for the comparison tables). */
    virtual std::uint64_t storageBits() const = 0;

    /**
     * Called for retired instructions, in order: @p first and the
     * n - 1 instructions after it. A call with n > 1 carries a run of
     * plain instructions at consecutive addresses within one cache
     * block (the functional fast-forward batches them); a control
     * instruction always comes alone. Overrides must leave the same
     * state as n calls with n = 1.
     */
    virtual void onCommit(const DynInst &first, std::uint64_t n, Cycle now)
    {
        (void)first;
        (void)n;
        (void)now;
    }

    /**
     * Called for every L1-I demand block access made by fetch.
     * @param block        Block-aligned address.
     * @param hit          True if the access hit in the L1-I.
     * @param fill_latency Observed latency of the miss (0 on a hit) —
     *                     EIP trains its trigger distance from this.
     */
    virtual void onDemandAccess(Addr block, bool hit, Cycle now,
                                Cycle fill_latency)
    {
        (void)block;
        (void)hit;
        (void)now;
        (void)fill_latency;
    }

    /**
     * Called when FDIP issues a prefetch for an FTQ block. EIP treats
     * these like demand accesses for training (Section 6.3).
     */
    virtual void onFdipPrefetch(Addr block, Cycle now)
    {
        (void)block;
        (void)now;
    }

    /** Called once per cycle before the queue is drained. */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * tick()'s next-event query: the first cycle >= @p now at which
     * tick() would change this prefetcher's state if no other hook
     * ran first (kNever when it never would). The detailed loop skips
     * the cycles before it. An override of tick() whose state changes
     * with time alone must override this too; the base tick() never
     * acts.
     */
    virtual Cycle
    nextTickAt(Cycle now) const
    {
        (void)now;
        return kNever;
    }

    /**
     * Registers this prefetcher's counters under @p prefix. The base
     * registers the request-queue counters every prefetcher shares;
     * overrides add their own and must call the base.
     */
    virtual void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        reg.add(prefix + ".requests_pushed",
                [this] { return pushed_; });
        reg.add(prefix + ".requests_popped",
                [this] { return popped_; });
        reg.add(prefix + ".requests_dropped_full",
                [this] { return droppedFull_; });
    }

    /** Pops the next prefetch block address; false if queue empty. */
    bool
    popRequest(Addr &block)
    {
        if (queue_.empty())
            return false;
        block = queue_.front();
        queue_.pop_front();
        ++popped_;
        return true;
    }

    std::size_t queueDepth() const { return queue_.size(); }

    /** Points the queue-squash emit site at @p sink (may be null). */
    void setEventSink(EventSink *sink) { obs_ = sink; }

    /**
     * Latches the simulator clock for emit sites reached through
     * paths that do not carry a cycle (push). Called once per cycle;
     * only meaningful while an event sink is attached.
     */
    void noteCycle(Cycle now) { obsNow_ = now; }

    /**
     * Serializes/restores prefetcher state for checkpointing: the
     * shared request queue, then the subclass's own state
     * (saveOwnState / restoreOwnState).
     */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, queue_);
        if constexpr (Ar::loading) {
            if (queue_.size() > maxQueue_) {
                ar.markFailed("prefetch queue longer than its maxQueue");
                queue_.clear();
                return;
            }
            for (std::size_t i = 0; i < queue_.size(); ++i)
                checkBlock(ar, queue_[i],
                           "a queued prefetch is not block-aligned");
            restoreOwnState(ar);
        } else {
            saveOwnState(ar);
        }
    }

  protected:
    virtual void saveOwnState(StateWriter &ar) = 0;
    virtual void restoreOwnState(StateLoader &ar) = 0;

    /** Enqueues a block-aligned prefetch request. */
    void
    push(Addr block)
    {
        if (queue_.size() >= maxQueue_) {
            ++droppedFull_;
            // Origin 2 == Origin::Ext: the external prefetcher is the
            // only client of this queue.
            HP_EMIT(obs_, emit(EventKind::PrefetchSquashed, obsNow_,
                               block, 0, 0, 2));
            return;
        }
        queue_.push_back(block);
        ++pushed_;
    }

    /** Sets the request-queue capacity (bulk prefetchers need more). */
    void setMaxQueue(std::size_t capacity) { maxQueue_ = capacity; }

    /** The attached sink (null unless tracing); for subclass emits. */
    EventSink *eventSink() const { return obs_; }

    std::size_t maxQueue() const { return maxQueue_; }

  private:
    std::size_t maxQueue_ = 512;
    /** FIFO request queue; a ring keeps the pop/push path pointer-
     *  chase free (the deque paid a double indirection per access). */
    RingBuffer<Addr> queue_{64};
    std::uint64_t pushed_ = 0;
    std::uint64_t popped_ = 0;
    std::uint64_t droppedFull_ = 0;
    EventSink *obs_ = nullptr;
    Cycle obsNow_ = 0;
};

} // namespace hp

#endif // HP_PREFETCH_PREFETCHER_HH
