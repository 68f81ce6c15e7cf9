/**
 * @file
 * Compression Buffer (Section 5.3.1): a small fully-associative FIFO of
 * spatial regions that compacts the retired-block stream before it is
 * written to the in-memory Metadata Buffer.
 */

#ifndef HP_CORE_COMPRESSION_BUFFER_HH
#define HP_CORE_COMPRESSION_BUFFER_HH

#include <optional>
#include <vector>

#include "core/spatial_region.hh"
#include "util/ring_buffer.hh"

namespace hp
{

/**
 * FIFO of spatial regions. Each retired block either sets a bit in a
 * matching resident region or opens a new region (evicting the oldest
 * when full). Region creation order is preserved so replay approximates
 * the retire order.
 */
class CompressionBuffer
{
  public:
    explicit CompressionBuffer(unsigned entries = 16);

    /**
     * Records one retired cache block.
     * @param block_addr Block-aligned instruction address.
     * @return The evicted region if the insertion displaced one.
     */
    std::optional<SpatialRegion> touch(Addr block_addr);

    /** Drains all resident regions in FIFO order and empties the buffer. */
    std::vector<SpatialRegion> flush();

    std::size_t size() const { return fifo_.size(); }
    unsigned capacity() const { return capacity_; }

    /** On-chip storage in bits (base 58b + vector 32b per entry). */
    std::uint64_t storageBits() const { return std::uint64_t(capacity_) * (58 + 32); }

    /** Serializes/restores the resident regions (checkpointing). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    unsigned capacity_;
    /** Sized to capacity_ entries, so it never grows. */
    RingBuffer<SpatialRegion> fifo_;
};

} // namespace hp

#endif // HP_CORE_COMPRESSION_BUFFER_HH
