/**
 * @file
 * In-memory Metadata Buffer (Section 5.3.2): stores every Bundle's
 * spatial-region sequence as a chain of fixed-size segments allocated
 * from a circular buffer. When the buffer wraps, reclaimed segments
 * invalidate their owning Bundle (the caller invalidates the Metadata
 * Address Table entry).
 */

#ifndef HP_CORE_METADATA_BUFFER_HH
#define HP_CORE_METADATA_BUFFER_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/spatial_region.hh"
#include "util/types.hh"

namespace hp
{

/** Spatial regions per segment (Section 5.3: 32). */
constexpr unsigned kRegionsPerSegment = 32;

/** Segment header: next pointer, num-insts checkpoint, Bundle ID. */
constexpr unsigned kSegmentHeaderBytes = 16;

/** Encoded size of one segment (the paper's 0.36 KB prefetch unit). */
constexpr unsigned kSegmentEncodedBytes =
    kRegionsPerSegment * kRegionEncodedBytes + kSegmentHeaderBytes;

/** Segment index inside the Metadata Buffer. */
using SegIdx = std::uint32_t;

/** Sentinel for "no segment". */
constexpr SegIdx kNoSeg = 0xffffffff;

/** One segment of a Bundle record. */
struct Segment
{
    /** Bundle that owns this segment (24-bit ID); checked on replay. */
    std::uint32_t owner = 0;

    /** True only for the head segment of a chain. */
    bool headOfBundle = false;

    /** True once allocated (until reclaimed by the circular cursor). */
    bool live = false;

    /** Next segment in the chain, or kNoSeg. */
    SegIdx next = kNoSeg;

    /**
     * Instructions retired from the Bundle start when this segment was
     * created; paces the replay of the following segment (§5.3.5).
     */
    std::uint64_t numInsts = 0;

    /** Recorded spatial regions (up to kRegionsPerSegment). */
    std::vector<SpatialRegion> regions;

    bool full() const { return regions.size() >= kRegionsPerSegment; }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        ar.value(owner);
        ar.value(headOfBundle);
        ar.value(live);
        ar.value(next);
        ar.value(numInsts);
        io(ar, regions);
    }
};

/**
 * Shared Metadata Buffer read-port bandwidth arbiter (DESIGN.md §12).
 * Consolidated cores walk their replay chains through one metadata
 * read port; each read occupies it for ceil(bytes / bytesPerCycle)
 * cycles and later reads queue FCFS behind it. Disabled (0
 * bytes/cycle, the single-core default) every read starts
 * immediately, exactly the pre-multi-core behavior. The arbiter holds
 * only the port state; each core's CacheHierarchy counts its own
 * reads and stall cycles.
 */
class MetadataReadArbiter
{
  public:
    explicit MetadataReadArbiter(unsigned bytes_per_cycle = 0)
        : bytesPerCycle_(bytes_per_cycle)
    {}

    bool enabled() const { return bytesPerCycle_ > 0; }

    /**
     * Claims the port for a @p bytes read issued at @p now.
     * @return The cycle the read actually starts (>= now).
     */
    Cycle
    acquire(std::uint64_t bytes, Cycle now)
    {
        if (bytesPerCycle_ == 0)
            return now;
        const Cycle start = nextFree_ > now ? nextFree_ : now;
        const Cycle busy =
            (bytes + bytesPerCycle_ - 1) / bytesPerCycle_;
        nextFree_ = start + busy;
        return start;
    }

    Cycle nextFree() const { return nextFree_; }

  private:
    unsigned bytesPerCycle_;
    Cycle nextFree_ = 0;
};

/**
 * The circular segment allocator plus segment storage. This class
 * models only the *contents* of the in-memory buffer; the latency and
 * bandwidth of reaching it are charged by the prefetcher through the
 * MetadataMemory service.
 */
class MetadataBuffer
{
  public:
    /** @param capacity_bytes Total buffer size (paper: 512 KB/core). */
    explicit MetadataBuffer(std::uint64_t capacity_bytes = 512 * 1024);

    std::size_t numSegments() const { return segments_.size(); }

    /**
     * Allocates the segment at the circular cursor for @p owner.
     * @return Pair of (new segment index, owner Bundle ID of a
     *         reclaimed head segment if one was overwritten —
     *         the caller must invalidate its table entry).
     */
    std::pair<SegIdx, std::optional<std::uint32_t>>
    allocate(std::uint32_t owner, bool head);

    Segment &seg(SegIdx idx) { return segments_[idx]; }
    const Segment &seg(SegIdx idx) const { return segments_[idx]; }

    /** True if @p idx currently belongs to Bundle @p owner. */
    bool
    ownedBy(SegIdx idx, std::uint32_t owner) const
    {
        return idx < segments_.size() && segments_[idx].owner == owner &&
               segments_[idx].live;
    }

    /** Bits needed to index a segment (the table pointer width). */
    unsigned pointerBits() const;

    // ---- Per-tenant quota partitioning (DESIGN.md §12). Off (the
    // single-core default) allocation is the one global circular
    // cursor above, byte-for-byte the classic behavior. ----

    /**
     * Splits the buffer into @p count contiguous equal quota ranges,
     * each with its own circular cursor; tenant t allocates only
     * inside range t, so one tenant's records can never reclaim
     * another's. Requires at least two segments per partition.
     */
    void setPartitions(unsigned count);

    /** Selects the partition subsequent allocate() calls draw from. */
    void setActiveTenant(unsigned tenant);

    unsigned partitions() const
    {
        return partBase_.empty() ? 1u : unsigned(partBase_.size());
    }

    /** [first, last) segment range of partition @p tenant. */
    std::pair<SegIdx, SegIdx> partitionRange(unsigned tenant) const;

    /** Serializes/restores segments and the circular cursor. */
    template <class Ar> void serializeState(Ar &ar);

  private:
    std::vector<Segment> segments_;
    SegIdx cursor_ = 0;

    /** Partition start indices (empty = partitioning off) and the
     *  per-partition circular cursors. */
    std::vector<SegIdx> partBase_;
    std::vector<SegIdx> partCursor_;
    unsigned activePart_ = 0;
};

} // namespace hp

#endif // HP_CORE_METADATA_BUFFER_HH
