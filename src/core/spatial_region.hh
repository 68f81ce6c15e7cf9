/**
 * @file
 * Spatial region encoding: a base cache-block address plus a 32-bit
 * vector of the blocks touched in the 32-block window starting at the
 * base. This is the compression unit shared by the Compression Buffer,
 * the Metadata Buffer and the replay engine (Section 5.3.1).
 */

#ifndef HP_CORE_SPATIAL_REGION_HH
#define HP_CORE_SPATIAL_REGION_HH

#include <cstdint>

#include "util/serialize.hh"
#include "util/types.hh"

namespace hp
{

/** Number of cache blocks covered by one spatial region. */
constexpr unsigned kRegionBlocks = 32;

/**
 * Bytes one region occupies in the in-memory metadata encoding:
 * a 6-byte block base plus a 4-byte bit vector, padded to 11 bytes so
 * that a 32-region segment plus header lands at the paper's 0.36 KB.
 */
constexpr unsigned kRegionEncodedBytes = 11;

/** One spatial region: block-aligned base plus touched-block vector. */
struct SpatialRegion
{
    /** Block-aligned base address of the window. */
    Addr base = 0;

    /** Bit i set means block (base + i * kBlockBytes) was touched. */
    std::uint32_t bits = 0;

    /** True if @p block_addr falls in this region's 32-block window. */
    bool
    covers(Addr block_addr) const
    {
        return block_addr >= base &&
               block_addr < base + Addr(kRegionBlocks) * kBlockBytes;
    }

    /** Sets the bit for @p block_addr (must be covered). */
    void
    touch(Addr block_addr)
    {
        bits |= 1u << ((block_addr - base) >> kBlockShift);
    }

    /** Number of touched blocks. */
    unsigned count() const { return __builtin_popcount(bits); }

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        ar.value(base);
        checkBlock(ar, base, "a spatial region's base is not "
                             "block-aligned");
        ar.value(bits);
    }

    /** Address of the i-th block in the window. */
    Addr
    blockAt(unsigned i) const
    {
        return base + Addr(i) * kBlockBytes;
    }

    bool operator==(const SpatialRegion &other) const = default;
};

} // namespace hp

#endif // HP_CORE_SPATIAL_REGION_HH
