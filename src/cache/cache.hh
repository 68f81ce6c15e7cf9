/**
 * @file
 * Set-associative cache with LRU replacement and prefetch-origin
 * tracking. Every resident block remembers who brought it in (demand,
 * FDIP, or the external prefetcher under test) and whether a demand
 * access has used it yet — the raw material for the accuracy, coverage
 * and pollution statistics in the evaluation.
 */

#ifndef HP_CACHE_CACHE_HH
#define HP_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hh"

namespace hp
{

/** Who caused a block to be brought into a cache. */
enum class Origin : std::uint8_t
{
    Demand, ///< Demand fetch miss.
    Fdip,   ///< FDIP (FTQ-directed) prefetch.
    Ext,    ///< The external prefetcher under evaluation.
};

/** Outcome of a probe that hit. */
struct HitInfo
{
    Origin origin;
    /** True if this is the first demand use of a prefetched block. */
    bool firstUse = false;
};

/** What was displaced by an insertion. */
struct EvictInfo
{
    Addr block = 0;
    Origin origin = Origin::Demand;
    bool used = false;
    bool valid = false;
};

/** A single cache level (block-grain, LRU, no data payload). */
class SetAssocCache
{
  public:
    /**
     * @param name        For diagnostics.
     * @param size_bytes  Capacity.
     * @param ways        Associativity.
     */
    SetAssocCache(std::string name, std::uint64_t size_bytes,
                  unsigned ways);

    /**
     * Demand probe. On a hit the block is marked used and moved to MRU.
     * @return Hit metadata, or nullopt on miss.
     */
    std::optional<HitInfo> access(Addr block);

    /** Probe without any state change (for redundancy filtering). */
    bool contains(Addr block) const;

    /**
     * Inserts @p block with @p origin (moves to MRU if present,
     * keeping the earliest origin).
     * @return The evicted victim, if any.
     */
    EvictInfo insert(Addr block, Origin origin);

    /** Invalidates the block if resident. */
    void invalidate(Addr block);

    /** Invalidates every resident block (context-switch flush). */
    void invalidateAll();

    /** Marks the block used without an access (MSHR merges). */
    void markUsed(Addr block);

    const std::string &name() const { return name_; }
    std::uint64_t sizeBytes() const { return sizeBytes_; }
    unsigned numSets() const { return numSets_; }
    unsigned ways() const { return ways_; }

    /** Serializes/restores the contents (checkpointing). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        Origin origin = Origin::Demand;
        bool used = false;
        std::uint64_t lastUse = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(valid);
            ar.value(tag);
            ar.value(origin);
            ar.value(used);
            ar.value(lastUse);
        }
    };

    unsigned setIndex(Addr block) const;

    std::string name_;
    std::uint64_t sizeBytes_;
    unsigned numSets_;
    unsigned ways_;
    std::uint64_t useClock_ = 0;
    std::vector<Line> lines_;
};

} // namespace hp

#endif // HP_CACHE_CACHE_HH
