#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
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

TEST(RdipTest, RestoreRejectsAFifoPositionOutsideTheBlocks)
{
    // A full entry of four blocks whose FIFO position, the 8 bytes
    // after its last block, reads 9: the next miss under its context
    // would write blocks[9].
    Rdip from;
    recordMisses(from, 4);
    std::vector<std::uint8_t> bytes = test::saved<Prefetcher>(from);
    const Addr last = blk(103);
    std::uint8_t pattern[sizeof(last)];
    std::memcpy(pattern, &last, sizeof(last));
    auto at = std::search(bytes.begin(), bytes.end(), pattern,
                          pattern + sizeof(pattern));
    ASSERT_NE(at, bytes.end());
    const std::uint64_t fifo_pos = 9;
    std::memcpy(&*at + sizeof(last), &fifo_pos, sizeof(fifo_pos));

    Rdip into;
    EXPECT_EQ(test::restoreError<Prefetcher>(into, bytes),
              "RDIP entry's FIFO position is outside its blocks");
}

} // namespace
} // namespace hp
