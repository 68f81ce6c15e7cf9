#include <gtest/gtest.h>

#include <set>

#include "prefetch/mana.hh"
#include "../test_helpers.hh"

namespace hp
{
namespace
{

constexpr Addr kBase = 0x400000;

Addr
blk(unsigned i)
{
    return kBase + Addr(i) * kBlockBytes;
}

std::vector<Addr>
drainQueue(Prefetcher &pf)
{
    std::vector<Addr> blocks;
    Addr block;
    while (pf.popRequest(block))
        blocks.push_back(block);
    return blocks;
}

/** Feeds a stream of block accesses (all hits). */
void
feed(Mana &pf, const std::vector<Addr> &blocks, Cycle &now)
{
    for (Addr b : blocks)
        pf.onDemandAccess(b, true, now++, 0);
}

/** A stream with region-sized strides so each access opens a region. */
std::vector<Addr>
stridedStream(unsigned regions)
{
    std::vector<Addr> blocks;
    for (unsigned r = 0; r < regions; ++r)
        blocks.push_back(blk(r * 8)); // regionBlocks = 8 default
    return blocks;
}

TEST(ManaTest, ReplaysRecordedStream)
{
    Mana pf;
    Cycle now = 0;
    auto stream = stridedStream(20);
    feed(pf, stream, now);
    drainQueue(pf);
    // Re-encounter the first region: MANA must stream ahead.
    pf.onDemandAccess(stream[0], true, now++, 0);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    // Default lookahead 3: the next regions must be issued.
    EXPECT_TRUE(unique.count(stream[1]));
    EXPECT_TRUE(unique.count(stream[2]));
    EXPECT_TRUE(unique.count(stream[3]));
    EXPECT_FALSE(unique.count(stream[10]));
}

TEST(ManaTest, LookaheadControlsDepth)
{
    ManaConfig deep;
    deep.lookahead = 8;
    Mana pf(deep);
    Cycle now = 0;
    auto stream = stridedStream(20);
    feed(pf, stream, now);
    drainQueue(pf);
    pf.onDemandAccess(stream[0], true, now++, 0);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    EXPECT_TRUE(unique.count(stream[8]));
}

TEST(ManaTest, AdvancesWithExecution)
{
    Mana pf;
    Cycle now = 0;
    auto stream = stridedStream(20);
    feed(pf, stream, now);
    drainQueue(pf);
    // Follow the stream: each step must pull one more region in.
    pf.onDemandAccess(stream[0], true, now++, 0);
    drainQueue(pf);
    pf.onDemandAccess(stream[1], true, now++, 0);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    EXPECT_TRUE(unique.count(stream[4]));
}

TEST(ManaTest, DivergenceForcesReindex)
{
    Mana pf;
    Cycle now = 0;
    auto stream = stridedStream(20);
    feed(pf, stream, now);
    drainQueue(pf);
    pf.onDemandAccess(stream[0], true, now++, 0);
    drainQueue(pf);
    std::uint64_t before = pf.divergences();
    // Jump to an unrelated address: off the recorded stream.
    pf.onDemandAccess(blk(500), true, now++, 0);
    EXPECT_EQ(pf.divergences(), before + 1);
}

TEST(ManaTest, RegionCompressionMergesNearbyBlocks)
{
    Mana pf;
    Cycle now = 0;
    // Blocks 0..7 share one region (regionBlocks = 8); then a far
    // region, then re-trigger.
    std::vector<Addr> stream;
    for (unsigned i = 0; i < 8; ++i)
        stream.push_back(blk(i));
    stream.push_back(blk(100));
    feed(pf, stream, now);
    drainQueue(pf);
    pf.onDemandAccess(blk(0), true, now++, 0);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    // The dense region's blocks are all issued together.
    EXPECT_TRUE(unique.count(blk(100)));
}

TEST(ManaTest, RestoreRejectsAnUnalignedRegionBase)
{
    // A replay pushes each block of a recorded region from its base,
    // and the fill of an unaligned block panics in the cache's insert.
    Mana from;
    from.onDemandAccess(blk(3) + 4, true, 0, 0);
    Mana into;
    EXPECT_EQ(test::restoreError<Prefetcher>(into,
                                             test::saved<Prefetcher>(from)),
              "a MANA region's base is not block-aligned");
}

TEST(ManaTest, StorageInPaperClass)
{
    Mana pf;
    double kb = double(pf.storageBits()) / 8.0 / 1024.0;
    // MANA's budget class is ~15-31 KB.
    EXPECT_GT(kb, 8.0);
    EXPECT_LT(kb, 40.0);
}

} // namespace
} // namespace hp
