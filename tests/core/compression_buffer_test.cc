#include <gtest/gtest.h>

#include "core/compression_buffer.hh"
#include "../test_helpers.hh"

namespace hp
{
namespace
{

constexpr Addr kBase = 0x400000;

TEST(CompressionBufferTest, SequentialBlocksShareOneRegion)
{
    CompressionBuffer buffer(16);
    for (unsigned i = 0; i < kRegionBlocks; ++i) {
        auto evicted = buffer.touch(kBase + Addr(i) * kBlockBytes);
        EXPECT_FALSE(evicted.has_value());
    }
    auto regions = buffer.flush();
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].base, kBase);
    EXPECT_EQ(regions[0].bits, 0xffffffffu);
    EXPECT_EQ(regions[0].count(), 32u);
}

TEST(CompressionBufferTest, BlockOutsideWindowOpensNewRegion)
{
    CompressionBuffer buffer(16);
    buffer.touch(kBase);
    buffer.touch(kBase + Addr(kRegionBlocks) * kBlockBytes);
    auto regions = buffer.flush();
    ASSERT_EQ(regions.size(), 2u);
}

TEST(CompressionBufferTest, RegionWindowIsAnchoredAtFirstTouch)
{
    CompressionBuffer buffer(16);
    Addr first = kBase + 10 * kBlockBytes;
    buffer.touch(first);
    // A block *before* the base is outside the window.
    buffer.touch(kBase);
    auto regions = buffer.flush();
    ASSERT_EQ(regions.size(), 2u);
    EXPECT_EQ(regions[0].base, first);
    EXPECT_EQ(regions[1].base, kBase);
}

TEST(CompressionBufferTest, EvictionIsFifoOrder)
{
    CompressionBuffer buffer(2);
    Addr window = Addr(kRegionBlocks) * kBlockBytes;
    buffer.touch(kBase);
    buffer.touch(kBase + window);
    auto evicted = buffer.touch(kBase + 2 * window);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->base, kBase);
    EXPECT_EQ(buffer.size(), 2u);
}

TEST(CompressionBufferTest, HitRefreshesBitsNotOrder)
{
    CompressionBuffer buffer(2);
    Addr window = Addr(kRegionBlocks) * kBlockBytes;
    buffer.touch(kBase);
    buffer.touch(kBase + window);
    // Touch a block in the *older* region: it must set a bit there,
    // not create a new region or change FIFO order.
    buffer.touch(kBase + kBlockBytes);
    auto evicted = buffer.touch(kBase + 2 * window);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->base, kBase);
    EXPECT_EQ(evicted->count(), 2u);
}

TEST(CompressionBufferTest, FlushDrainsEverythingInOrder)
{
    CompressionBuffer buffer(8);
    Addr window = Addr(kRegionBlocks) * kBlockBytes;
    for (unsigned i = 0; i < 5; ++i)
        buffer.touch(kBase + Addr(i) * window);
    auto regions = buffer.flush();
    ASSERT_EQ(regions.size(), 5u);
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(regions[i].base, kBase + Addr(i) * window);
    EXPECT_EQ(buffer.size(), 0u);
}

TEST(CompressionBufferTest, StorageBitsScaleWithCapacity)
{
    CompressionBuffer a(16), b(32);
    EXPECT_EQ(b.storageBits(), 2 * a.storageBits());
}

TEST(CompressionBufferTest, RestoreRejectsMoreRegionsThanEntries)
{
    // touch() evicts only when the FIFO is exactly full, so a restored
    // FIFO over its entries would never shrink back.
    CompressionBuffer from(16);
    for (unsigned i = 0; i < 16; ++i)
        from.touch(kBase + Addr(i) * kRegionBlocks * kBlockBytes);
    ASSERT_EQ(from.size(), 16u);
    CompressionBuffer into(8);
    EXPECT_EQ(test::restoreError(into, test::saved(from)),
              "compression buffer holds more regions than its entries");
    EXPECT_LE(into.size(), into.capacity());
}

TEST(SpatialRegionTest, RestoreRejectsAnUnalignedBase)
{
    // HP's replay pushes each block of a region from its base, and the
    // fill of an unaligned block panics in the cache's insert.
    SpatialRegion region;
    region.base = kBase + 4;
    region.bits = 1;
    SpatialRegion into;
    EXPECT_EQ(test::restoreError(into, test::saved(region)),
              "a spatial region's base is not block-aligned");
}

TEST(SpatialRegionTest, CoversAndTouch)
{
    SpatialRegion region;
    region.base = kBase;
    EXPECT_TRUE(region.covers(kBase));
    EXPECT_TRUE(
        region.covers(kBase + Addr(kRegionBlocks - 1) * kBlockBytes));
    EXPECT_FALSE(
        region.covers(kBase + Addr(kRegionBlocks) * kBlockBytes));
    EXPECT_FALSE(region.covers(kBase - kBlockBytes));

    region.touch(kBase + 5 * kBlockBytes);
    EXPECT_EQ(region.bits, 1u << 5);
    EXPECT_EQ(region.blockAt(5), kBase + 5 * kBlockBytes);
}

} // namespace
} // namespace hp
