/**
 * @file
 * Property-based test: CompressionBuffer vs a naive vector-based
 * reference model of Section 5.3.1's spec — newest-first matching,
 * FIFO eviction on overflow, creation-order drain — under random
 * block streams with realistic spatial locality, fixed seeds.
 * Serialization round-trips are checked mid-stream so wrapped/evicted
 * states are covered too.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/compression_buffer.hh"
#include "util/rng.hh"
#include "util/serialize.hh"
#include "util/types.hh"

namespace hp
{
namespace
{

/** Straight-line reimplementation of the spec, no cleverness. */
class NaiveCompressionBuffer
{
  public:
    explicit NaiveCompressionBuffer(unsigned entries)
        : capacity_(entries)
    {
    }

    std::optional<SpatialRegion>
    touch(Addr block_addr)
    {
        for (std::size_t i = regions_.size(); i-- > 0;) {
            if (regions_[i].covers(block_addr)) {
                regions_[i].touch(block_addr);
                return std::nullopt;
            }
        }
        SpatialRegion fresh;
        fresh.base = blockAlign(block_addr);
        fresh.touch(block_addr);
        std::optional<SpatialRegion> evicted;
        if (regions_.size() == capacity_) {
            evicted = regions_.front();
            regions_.erase(regions_.begin());
        }
        regions_.push_back(fresh);
        return evicted;
    }

    std::vector<SpatialRegion>
    flush()
    {
        std::vector<SpatialRegion> drained = regions_;
        regions_.clear();
        return drained;
    }

    const std::vector<SpatialRegion> &regions() const { return regions_; }

  private:
    unsigned capacity_;
    std::vector<SpatialRegion> regions_;
};

/** A block stream with hot regions and occasional far jumps. */
Addr
nextBlock(Rng &rng, Addr &cursor)
{
    const std::uint64_t roll = rng.nextUint(100);
    if (roll < 70) {
        // Stay near the cursor: dense spatial reuse inside regions.
        cursor += kBlockBytes * rng.nextRange(-3, 4);
    } else if (roll < 90) {
        // Medium jump: often a different resident region.
        cursor += kBlockBytes * rng.nextRange(-200, 200);
    } else {
        // Far jump: forces evictions.
        cursor = 0x400000 + kBlockBytes * rng.nextUint(1 << 16);
    }
    return blockAlign(cursor);
}

class CompressionBufferPropertyTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CompressionBufferPropertyTest, MatchesNaiveReference)
{
    for (unsigned capacity : {1u, 2u, 16u}) {
        Rng rng(GetParam());
        CompressionBuffer buffer(capacity);
        NaiveCompressionBuffer ref(capacity);
        Addr cursor = 0x400000;

        for (int op = 0; op < 30'000; ++op) {
            const Addr block = nextBlock(rng, cursor);
            const std::optional<SpatialRegion> got = buffer.touch(block);
            const std::optional<SpatialRegion> want = ref.touch(block);
            ASSERT_EQ(got.has_value(), want.has_value())
                << "op " << op << " capacity " << capacity;
            if (got) {
                ASSERT_EQ(*got, *want) << "op " << op;
            }
            ASSERT_EQ(buffer.size(), ref.regions().size());
        }

        EXPECT_EQ(buffer.flush(), ref.flush());
        EXPECT_EQ(buffer.size(), 0u);
    }
}

TEST_P(CompressionBufferPropertyTest, SerializeRoundTripsMidStream)
{
    Rng rng(GetParam() ^ 0x5eed);
    CompressionBuffer buffer(8);
    Addr cursor = 0x400000;
    for (int op = 0; op < 5'000; ++op)
        buffer.touch(nextBlock(rng, cursor));

    StateWriter writer;
    buffer.serializeState(writer);
    const std::vector<std::uint8_t> bytes = writer.take();

    // Restore over a buffer left in a different state.
    CompressionBuffer restored(8);
    restored.touch(0x1000);
    StateLoader loader(bytes.data(), bytes.size());
    restored.serializeState(loader);
    ASSERT_FALSE(loader.failed());
    EXPECT_EQ(loader.remaining(), 0u);
    EXPECT_EQ(restored.size(), buffer.size());

    // Restored buffer must continue exactly like the original.
    for (int op = 0; op < 2'000; ++op) {
        const Addr block = nextBlock(rng, cursor);
        ASSERT_EQ(restored.touch(block), buffer.touch(block)) << "op " << op;
    }
    EXPECT_EQ(restored.flush(), buffer.flush());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionBufferPropertyTest,
                         ::testing::Values(3u, 17u, 0xfeedfaceu));

} // namespace
} // namespace hp
