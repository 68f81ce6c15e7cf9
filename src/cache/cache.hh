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

#include "util/set_assoc_table.hh"
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

    /** Invalidates every resident block (context-switch flush). */
    void invalidateAll();

    /** Marks the block used without an access (MSHR merges). */
    void markUsed(Addr block);

    const std::string &name() const { return name_; }
    std::uint64_t sizeBytes() const { return sizeBytes_; }
    unsigned numSets() const { return table_.sets(); }
    unsigned ways() const { return table_.ways(); }

    /** Serializes/restores the contents (checkpointing). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    /** Per-way payload, indexed by table slot. */
    struct Meta
    {
        Origin origin = Origin::Demand;
        bool used = false;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(origin);
            ar.value(used);
        }
    };

    std::string name_;
    std::uint64_t sizeBytes_;
    /** Keyed by block number, which leaves the tag's top bit free. */
    SetAssocTable<Addr> table_;
    std::vector<Meta> meta_;
};

} // namespace hp

#endif // HP_CACHE_CACHE_HH
