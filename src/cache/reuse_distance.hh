/**
 * @file
 * Exact LRU stack-distance (reuse-distance) tracking at cache-block
 * granularity, via the classic Olken algorithm on a Fenwick tree.
 *
 * The Figure 12 study classifies the top 10% of instruction accesses by
 * reuse distance — measured in unique interleaved cache blocks — as
 * "long-range" and asks how many of their L2 misses each prefetcher
 * eliminates.
 */

#ifndef HP_CACHE_REUSE_DISTANCE_HH
#define HP_CACHE_REUSE_DISTANCE_HH

#include <cstdint>
#include <vector>

#include "util/flat_map.hh"
#include "util/types.hh"

namespace hp
{

/** Exact reuse-distance tracker over a block access stream. */
class ReuseDistanceTracker
{
  public:
    /** Distance reported for the first access to a block. */
    static constexpr std::uint64_t kColdAccess = ~std::uint64_t(0);

    ReuseDistanceTracker() = default;

    /**
     * Records an access to @p block.
     * @return Number of unique blocks touched since the previous access
     *         to @p block, or kColdAccess for the first access.
     */
    std::uint64_t access(Addr block);

    /** Unique blocks seen so far. */
    std::size_t uniqueBlocks() const { return lastSeq_.size(); }

    /** Serializes/restores the tracker (checkpointing). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    void bitAdd(std::size_t pos, int delta);
    std::uint64_t bitPrefix(std::size_t pos) const;

    FlatMap<Addr, std::uint64_t> lastSeq_;
    std::vector<std::int32_t> tree_;
    std::uint64_t seq_ = 0;
};

} // namespace hp

#endif // HP_CACHE_REUSE_DISTANCE_HH
