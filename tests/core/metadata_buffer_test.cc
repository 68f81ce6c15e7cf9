#include <gtest/gtest.h>

#include "core/metadata_buffer.hh"
#include "../test_helpers.hh"

namespace hp
{
namespace
{

TEST(MetadataBufferTest, CapacityInSegments)
{
    MetadataBuffer buffer(512 * 1024);
    // 512 KB / 368 B per segment = 1424 segments.
    EXPECT_EQ(buffer.numSegments(), 512u * 1024 / kSegmentEncodedBytes);
    EXPECT_GE(buffer.numSegments(), 1400u);
}

TEST(MetadataBufferTest, PointerBitsMatchPaper)
{
    // The paper's 512 KB buffer is indexed by an 11-bit pointer.
    MetadataBuffer buffer(512 * 1024);
    EXPECT_EQ(buffer.pointerBits(), 11u);
}

TEST(MetadataBufferTest, AllocateInitializesSegment)
{
    MetadataBuffer buffer(8 * 1024);
    auto [idx, invalidated] = buffer.allocate(0x1234, true);
    EXPECT_FALSE(invalidated.has_value());
    const Segment &seg = buffer.seg(idx);
    EXPECT_EQ(seg.owner, 0x1234u);
    EXPECT_TRUE(seg.headOfBundle);
    EXPECT_TRUE(seg.live);
    EXPECT_EQ(seg.next, kNoSeg);
    EXPECT_TRUE(seg.regions.empty());
}

TEST(MetadataBufferTest, CircularReclaimReportsEvictedHead)
{
    MetadataBuffer buffer(2 * kSegmentEncodedBytes);
    ASSERT_EQ(buffer.numSegments(), 2u);
    buffer.allocate(0xaaa, true);
    buffer.allocate(0xaaa, false);
    // Wrap: reclaims the head segment of bundle 0xaaa.
    auto [idx, invalidated] = buffer.allocate(0xbbb, true);
    EXPECT_EQ(idx, 0u);
    ASSERT_TRUE(invalidated.has_value());
    EXPECT_EQ(*invalidated, 0xaaau);
}

TEST(MetadataBufferTest, ReclaimOfNonHeadInvalidatesNothing)
{
    MetadataBuffer buffer(2 * kSegmentEncodedBytes);
    buffer.allocate(0xaaa, true);
    buffer.allocate(0xaaa, false);
    buffer.allocate(0xbbb, true); // reclaims the head (reported)
    // Next allocation reclaims the non-head segment: no invalidation.
    auto [idx, invalidated] = buffer.allocate(0xbbb, false);
    EXPECT_EQ(idx, 1u);
    EXPECT_FALSE(invalidated.has_value());
}

TEST(MetadataBufferTest, SameOwnerReallocationNotReported)
{
    MetadataBuffer buffer(2 * kSegmentEncodedBytes);
    buffer.allocate(0xaaa, true);
    buffer.allocate(0xaaa, false);
    // The same bundle reclaiming its own head is not an invalidation.
    auto [idx, invalidated] = buffer.allocate(0xaaa, true);
    (void)idx;
    EXPECT_FALSE(invalidated.has_value());
}

TEST(MetadataBufferTest, OwnedByChecksOwnerAndLiveness)
{
    MetadataBuffer buffer(4 * kSegmentEncodedBytes);
    auto [idx, inv] = buffer.allocate(7, true);
    (void)inv;
    EXPECT_TRUE(buffer.ownedBy(idx, 7));
    EXPECT_FALSE(buffer.ownedBy(idx, 8));
    EXPECT_FALSE(buffer.ownedBy(kNoSeg, 7));
    EXPECT_FALSE(buffer.ownedBy(9999, 7));
}

TEST(MetadataBufferTest, SegmentEncodedSizeMatchesPaper)
{
    // 32 regions x 11 B + 16 B header = 368 B ~ the paper's 0.36 KB.
    EXPECT_EQ(kSegmentEncodedBytes, 368u);
}

/**
 * A blob of @p listed empty segments: their count, the segments, then
 * the cursor.
 */
std::vector<std::uint8_t>
emptyBufferBlob(std::uint64_t listed)
{
    StateWriter writer;
    writer.value(listed);
    for (std::uint64_t i = 0; i < listed; ++i) {
        Segment seg;
        seg.serializeState(writer);
    }
    writer.value(SegIdx(0));
    return writer.take();
}

TEST(MetadataBufferTest, RestoreRejectsASegmentListOfAnotherCount)
{
    // The blob writes the segment count once, and a restore must not
    // resize the buffer to it.
    MetadataBuffer buffer(8 * 1024);
    const std::uint64_t n = buffer.numSegments();
    ASSERT_EQ(test::restoreError(buffer, emptyBufferBlob(n)), "");
    EXPECT_EQ(test::restoreError(buffer, emptyBufferBlob(n - 1)),
              "metadata buffer: the segment list's count differs from "
              "its geometry");
    EXPECT_EQ(buffer.numSegments(), n);
}

TEST(MetadataBufferTest, RestoreRejectsACursorPastItsSegments)
{
    // allocate() indexes the segments with the circular cursor, the
    // blob's last field: a one-byte varint here.
    MetadataBuffer from(8 * 1024);
    from.allocate(0x1234, true);
    std::vector<std::uint8_t> bytes = test::saved(from);
    MetadataBuffer into(8 * 1024);
    ASSERT_EQ(test::restoreError(into, bytes), "");
    ASSERT_EQ(bytes.back(), 1u);
    bytes.pop_back();
    StateWriter past;
    past.value(SegIdx(from.numSegments()));
    for (std::uint8_t b : past.take())
        bytes.push_back(b);
    EXPECT_EQ(test::restoreError(into, bytes),
              "metadata buffer: the cursor is past its segments");
}

} // namespace
} // namespace hp
