#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "prefetch/rdip.hh"
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

DynInst
call(Addr pc, Addr target)
{
    DynInst inst;
    inst.pc = pc;
    inst.kind = InstKind::Call;
    inst.taken = true;
    inst.target = target;
    return inst;
}

DynInst
ret(Addr pc, Addr target)
{
    DynInst inst;
    inst.pc = pc;
    inst.kind = InstKind::Return;
    inst.taken = true;
    inst.target = target;
    return inst;
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

TEST(RdipTest, ReplaysMissesOfRecurringSignature)
{
    Rdip pf;
    Cycle now = 0;
    // Enter context (call), observe two misses, leave (return).
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    drainQueue(pf);
    pf.onDemandAccess(blk(5), false, now++, 20);
    pf.onDemandAccess(blk(9), false, now++, 20);
    pf.onCommit(ret(0x10040, 0x1004), 1, now++);
    drainQueue(pf);

    // Re-enter the same context: the recorded misses are prefetched.
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    EXPECT_TRUE(unique.count(blk(5)));
    EXPECT_TRUE(unique.count(blk(9)));
}

TEST(RdipTest, DistinctContextsDoNotAlias)
{
    Rdip pf;
    Cycle now = 0;
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    pf.onDemandAccess(blk(5), false, now++, 20);
    pf.onCommit(ret(0x10040, 0x1004), 1, now++);
    drainQueue(pf);

    // A different call context must not replay the other's misses.
    pf.onCommit(call(0x2000, 0x20000), 1, now++);
    auto blocks = drainQueue(pf);
    EXPECT_EQ(std::count(blocks.begin(), blocks.end(), blk(5)), 0);
}

TEST(RdipTest, HitsAreNotRecorded)
{
    Rdip pf;
    Cycle now = 0;
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    pf.onDemandAccess(blk(7), true, now++, 0); // hit
    pf.onCommit(ret(0x10040, 0x1004), 1, now++);
    drainQueue(pf);
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    EXPECT_TRUE(drainQueue(pf).empty());
}

TEST(RdipTest, EntryCapacityBounded)
{
    RdipConfig config;
    config.blocksPerEntry = 4;
    Rdip pf(config);
    Cycle now = 0;
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    for (unsigned i = 0; i < 20; ++i)
        pf.onDemandAccess(blk(i), false, now++, 20);
    pf.onCommit(ret(0x10040, 0x1004), 1, now++);
    drainQueue(pf);
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    EXPECT_LE(drainQueue(pf).size(), 4u);
}

TEST(RdipTest, StorageIsMetadataHungry)
{
    Rdip pf;
    double kb = double(pf.storageBits()) / 8.0 / 1024.0;
    // The paper quotes 60 KB/core for RDIP.
    EXPECT_GT(kb, 40.0);
    EXPECT_LT(kb, 300.0);
}

/** Records misses on blk(100)..blk(100 + misses - 1) under one call
 *  context. */
void
recordMisses(Rdip &pf, unsigned misses)
{
    Cycle now = 0;
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    for (unsigned i = 0; i < misses; ++i)
        pf.onDemandAccess(blk(100 + i), false, now++, 20);
}

TEST(RdipTest, RestoreRejectsAnotherTableSize)
{
    // entryFor divides by the table size, which is tableEntries.
    RdipConfig small;
    small.tableEntries = 16;
    Rdip from(small);
    recordMisses(from, 2);
    Rdip into;
    EXPECT_EQ(test::restoreError<Prefetcher>(
                  into, test::saved<Prefetcher>(from)),
              "RDIP table size differs from tableEntries");
}

TEST(RdipTest, RestoreRejectsAnEntryOverBlocksPerEntry)
{
    RdipConfig wide;
    wide.blocksPerEntry = 8;
    Rdip from(wide);
    recordMisses(from, 8);
    Rdip into; // four blocks per entry, the same table size
    EXPECT_EQ(test::restoreError<Prefetcher>(
                  into, test::saved<Prefetcher>(from)),
              "RDIP entry holds more than blocksPerEntry blocks");
}

/** The encoding of an entry's block list @p blocks. */
std::vector<std::uint8_t>
blockList(std::vector<Addr> blocks)
{
    StateWriter writer;
    io(writer, blocks);
    return writer.take();
}

TEST(RdipTest, RestoreRejectsAFifoPositionOutsideTheBlocks)
{
    // A full entry of four blocks whose FIFO position, the one-byte
    // varint after its block list, reads 9: the next miss under its
    // context would write blocks[9].
    Rdip from;
    recordMisses(from, 4);
    std::vector<std::uint8_t> bytes = test::saved<Prefetcher>(from);
    const std::vector<std::uint8_t> list =
        blockList({blk(100), blk(101), blk(102), blk(103)});
    auto at = std::search(bytes.begin(), bytes.end(), list.begin(),
                          list.end());
    ASSERT_NE(at, bytes.end());
    at += std::ptrdiff_t(list.size());
    ASSERT_EQ(*at, 0u);
    *at = 9;

    Rdip into;
    EXPECT_EQ(test::restoreError<Prefetcher>(into, bytes),
              "RDIP entry's FIFO position is outside its blocks");
}

TEST(RdipTest, RestoreRejectsAnUnalignedBlock)
{
    // A return to the entry's context pushes its blocks as prefetches,
    // and the fill of an unaligned block panics in the cache's insert.
    Rdip from;
    from.onCommit(call(0x1000, 0x10000), 1, 0);
    from.onDemandAccess(blk(100) + 4, false, 1, 20);
    Rdip into;
    EXPECT_EQ(test::restoreError<Prefetcher>(into,
                                             test::saved<Prefetcher>(from)),
              "an RDIP block is not block-aligned");
}

} // namespace
} // namespace hp
