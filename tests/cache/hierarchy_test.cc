#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "cache/hierarchy.hh"
#include "util/serialize.hh"
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

HierarchyParams
smallParams()
{
    HierarchyParams p;
    p.l1iBytes = 2 * 1024; // tiny, to exercise evictions
    p.l1iWays = 4;
    p.l2Bytes = 16 * 1024;
    p.l2InstFraction = 1.0;
    p.llcBytes = 64 * 1024;
    p.llcInstFraction = 1.0;
    return p;
}

TEST(HierarchyTest, ColdMissGoesToMemory)
{
    CacheHierarchy hier(smallParams());
    DemandResult res = hier.demandAccess(blk(0), 100);
    EXPECT_FALSE(res.retry);
    EXPECT_EQ(res.level, ServiceLevel::Mem);
    EXPECT_EQ(res.readyAt, 100 + hier.params().memLatency);
    EXPECT_EQ(hier.stats().demandL1Misses, 1u);
    EXPECT_EQ(hier.stats().demandL2Misses, 1u);
    EXPECT_EQ(hier.stats().demandLlcMisses, 1u);
}

TEST(HierarchyTest, FillMakesSubsequentAccessHit)
{
    CacheHierarchy hier(smallParams());
    DemandResult res = hier.demandAccess(blk(0), 0);
    hier.tick(res.readyAt);
    DemandResult second = hier.demandAccess(blk(0), res.readyAt + 1);
    EXPECT_EQ(second.level, ServiceLevel::L1);
    EXPECT_EQ(hier.stats().dramDemandBytes, kBlockBytes);
}

TEST(HierarchyTest, MergeIntoOutstandingMiss)
{
    CacheHierarchy hier(smallParams());
    DemandResult first = hier.demandAccess(blk(0), 0);
    DemandResult merge = hier.demandAccess(blk(0), 10);
    EXPECT_EQ(merge.level, ServiceLevel::Mshr);
    EXPECT_EQ(merge.readyAt, first.readyAt);
    EXPECT_EQ(hier.stats().servedByMshr, 1u);
}

TEST(HierarchyTest, L2ServiceAfterL1Eviction)
{
    HierarchyParams params = smallParams();
    CacheHierarchy hier(params);
    // Fill blk(0), then flood the L1-I so it gets evicted; it should
    // then be served by the L2.
    DemandResult res = hier.demandAccess(blk(0), 0);
    hier.tick(res.readyAt);
    Cycle now = res.readyAt + 1;
    unsigned l1_blocks = unsigned(params.l1iBytes / kBlockBytes);
    for (unsigned i = 1; i <= 2 * l1_blocks; ++i) {
        DemandResult r = hier.demandAccess(blk(i), now);
        if (!r.retry) {
            now = r.readyAt + 1;
            hier.tick(now);
        } else {
            hier.tick(now + 200);
            now += 200;
        }
    }
    DemandResult again = hier.demandAccess(blk(0), now);
    EXPECT_EQ(again.level, ServiceLevel::L2);
    EXPECT_EQ(again.readyAt, now + params.l2Latency);
}

TEST(HierarchyTest, MshrExhaustionForcesRetry)
{
    HierarchyParams params = smallParams();
    params.l1iMshrs = 2;
    CacheHierarchy hier(params);
    EXPECT_FALSE(hier.demandAccess(blk(0), 0).retry);
    EXPECT_FALSE(hier.demandAccess(blk(1), 0).retry);
    EXPECT_TRUE(hier.demandAccess(blk(2), 0).retry);
    // After fills complete, the access succeeds.
    hier.tick(1000);
    EXPECT_FALSE(hier.demandAccess(blk(2), 1000).retry);
}

TEST(HierarchyTest, PrefetchFillsAndCountsUseful)
{
    CacheHierarchy hier(smallParams());
    EXPECT_TRUE(hier.prefetch(blk(0), Origin::Ext, 0));
    hier.tick(1000);
    EXPECT_EQ(hier.stats().ext.inserted, 1u);
    DemandResult res = hier.demandAccess(blk(0), 1000);
    EXPECT_EQ(res.level, ServiceLevel::L1);
    EXPECT_EQ(hier.stats().ext.usefulL1, 1u);
}

TEST(HierarchyTest, RedundantPrefetchFiltered)
{
    CacheHierarchy hier(smallParams());
    hier.prefetch(blk(0), Origin::Ext, 0);
    EXPECT_FALSE(hier.prefetch(blk(0), Origin::Ext, 1)); // in flight
    hier.tick(1000);
    EXPECT_FALSE(hier.prefetch(blk(0), Origin::Ext, 1001)); // resident
    EXPECT_EQ(hier.stats().ext.redundant, 2u);
}

TEST(HierarchyTest, PrefetchRespectsMshrReservation)
{
    HierarchyParams params = smallParams();
    params.l1iMshrs = 4;
    params.mshrsReservedForDemand = 2;
    CacheHierarchy hier(params);
    EXPECT_TRUE(hier.prefetch(blk(0), Origin::Ext, 0));
    EXPECT_TRUE(hier.prefetch(blk(1), Origin::Ext, 0));
    // Only 2 MSHRs left: reserved for demand.
    EXPECT_FALSE(hier.prefetch(blk(2), Origin::Ext, 0));
    EXPECT_EQ(hier.stats().ext.dropped, 1u);
    // Demand can still allocate.
    EXPECT_FALSE(hier.demandAccess(blk(3), 0).retry);
}

TEST(HierarchyTest, LatePrefetchMerge)
{
    CacheHierarchy hier(smallParams());
    hier.prefetch(blk(0), Origin::Ext, 0);
    DemandResult res = hier.demandAccess(blk(0), 5);
    EXPECT_EQ(res.level, ServiceLevel::Mshr);
    EXPECT_EQ(hier.stats().ext.lateMerges, 1u);
    // The block, once filled, must not later count as useless.
    hier.tick(1000);
    EXPECT_EQ(hier.stats().ext.uselessEvicted, 0u);
}

TEST(HierarchyTest, UselessEvictionCounted)
{
    HierarchyParams params = smallParams();
    CacheHierarchy hier(params);
    // Prefetch one block, never use it, then flood its set.
    hier.prefetch(blk(0), Origin::Ext, 0);
    hier.tick(1000);
    Cycle now = 1000;
    unsigned sets = unsigned(params.l1iBytes / kBlockBytes /
                             params.l1iWays);
    for (unsigned w = 1; w <= params.l1iWays + 1; ++w) {
        DemandResult r = hier.demandAccess(blk(w * sets), now);
        now = r.readyAt + 1;
        hier.tick(now);
    }
    EXPECT_EQ(hier.stats().ext.uselessEvicted, 1u);
}

TEST(HierarchyTest, PrefetchToL2Mode)
{
    CacheHierarchy hier(smallParams());
    EXPECT_TRUE(hier.prefetch(blk(0), Origin::Ext, 0, /*to_l2=*/true));
    hier.tick(1000);
    // The block must be in the L2, not the L1-I.
    EXPECT_FALSE(hier.l1i().contains(blk(0)));
    EXPECT_TRUE(hier.l2().contains(blk(0)));
    // Demand then hits the L2 and counts usefulL2.
    DemandResult res = hier.demandAccess(blk(0), 1000);
    EXPECT_EQ(res.level, ServiceLevel::L2);
    EXPECT_EQ(hier.stats().ext.usefulL2, 1u);
}

TEST(HierarchyTest, DistanceTrackedForUsefulPrefetch)
{
    CacheHierarchy hier(smallParams());
    hier.prefetch(blk(0), Origin::Ext, 0);
    hier.tick(1000);
    for (int i = 0; i < 10; ++i)
        hier.noteFetchBlock();
    hier.demandAccess(blk(0), 1000);
    EXPECT_EQ(hier.stats().extUsefulDistanceSamples, 1u);
    EXPECT_EQ(hier.stats().extUsefulDistanceSum, 10u);
}

TEST(HierarchyTest, MetadataReadLatencyAndTraffic)
{
    HierarchyParams params = smallParams();
    params.metadataDramEvery = 2;
    CacheHierarchy hier(params);
    Cycle llc_read = hier.metadataRead(368, 100);
    EXPECT_EQ(llc_read, 100 + params.llcLatency);
    Cycle dram_read = hier.metadataRead(368, 200);
    EXPECT_EQ(dram_read, 200 + params.memLatency);
    EXPECT_GT(hier.stats().dramMetadataReadBytes, 0u);
    hier.metadataWrite(100, 300);
    EXPECT_EQ(hier.stats().dramMetadataWriteBytes, 100u);
}

TEST(HierarchyTest, InstShareBytesRounding)
{
    // 512 KB at 0.65 share with 8 ways of 64 B = set-aligned value.
    std::uint64_t share = instShareBytes(512 * 1024, 0.65, 8);
    EXPECT_EQ(share % (8 * kBlockBytes), 0u);
    EXPECT_NEAR(double(share), 0.65 * 512 * 1024, 8.0 * kBlockBytes);
}

TEST(HierarchyTest, PrefetchAccuracyClampedToOne)
{
    // Late merges are counted when the demand merges into the MSHR,
    // but the insertion is only counted when the fill completes, so a
    // run can end with served > inserted. Accuracy must stay in
    // [0, 1] regardless.
    PrefetchStats late_only;
    late_only.issued = 3;
    late_only.lateMerges = 2;
    late_only.inserted = 0;
    EXPECT_DOUBLE_EQ(late_only.accuracy(), 1.0);

    PrefetchStats overshoot;
    overshoot.inserted = 4;
    overshoot.usefulL1 = 4;
    overshoot.lateMerges = 3;
    EXPECT_DOUBLE_EQ(overshoot.accuracy(), 1.0);

    PrefetchStats idle;
    EXPECT_DOUBLE_EQ(idle.accuracy(), 0.0);

    // The common case (inserted >= useful + late) is unchanged.
    PrefetchStats normal;
    normal.inserted = 10;
    normal.usefulL1 = 4;
    normal.lateMerges = 1;
    EXPECT_DOUBLE_EQ(normal.accuracy(), 0.5);
}

TEST(HierarchyTest, EqualReadyAtFillsCompleteInAllocationOrder)
{
    // Four cold misses to one L1-I set allocated in the same cycle all
    // come back from memory at the same readyAt. They must land in
    // allocation order (not address order), which shows in the order
    // LRU evicts them once later fills flood the set.
    HierarchyParams params = smallParams();
    CacheHierarchy hier(params);
    const unsigned sets = unsigned(params.l1iBytes / kBlockBytes /
                                   params.l1iWays);
    ASSERT_EQ(params.l1iWays, 4u);
    const Addr order[] = {blk(3 * sets), blk(1 * sets), blk(2 * sets),
                          blk(0)};
    Cycle ready = 0;
    for (Addr block : order) {
        DemandResult r = hier.demandAccess(block, 0);
        ASSERT_EQ(r.level, ServiceLevel::Mem);
        ready = r.readyAt;
    }
    hier.tick(ready);
    for (Addr block : order)
        ASSERT_TRUE(hier.l1i().contains(block));

    Cycle now = ready + 1;
    for (unsigned i = 0; i < 4; ++i) {
        DemandResult r = hier.demandAccess(blk((4 + i) * sets), now);
        now = r.readyAt + 1;
        hier.tick(now);
        for (unsigned j = 0; j < 4; ++j) {
            EXPECT_EQ(hier.l1i().contains(order[j]), j > i)
                << "after fill " << i << ", block " << j;
        }
    }
}

std::vector<std::uint8_t>
encodeHierarchy(CacheHierarchy &hier)
{
    StateWriter writer;
    hier.serializeState(writer);
    return writer.take();
}

/** Demand misses, merges and prefetches of every origin, leaving
 *  several fills in flight, some sharing a readyAt out of address
 *  order; plus a partly filled I-TLB with reordered recency. */
void
driveToLiveMshrs(CacheHierarchy &hier)
{
    DemandResult warm = hier.demandAccess(blk(40), 0);
    hier.tick(warm.readyAt);
    hier.prefetch(blk(41), Origin::Ext, 1);
    hier.tick(500);
    hier.demandAccess(blk(41), 500); // first use of the prefetch

    hier.demandAccess(blk(9), 1000);
    hier.demandAccess(blk(2), 1000); // same readyAt as blk(9)
    hier.prefetch(blk(7), Origin::Fdip, 1000);
    hier.prefetch(blk(5), Origin::Ext, 1003);
    hier.prefetch(blk(6), Origin::Ext, 1003, /*to_l2=*/true);
    hier.demandAccess(blk(7), 1005); // late merge into the FDIP fill
    hier.demandAccess(blk(40), 1006); // L2 service, short latency
    for (int i = 0; i < 3; ++i)
        hier.noteFetchBlock();

    hier.itlb().translate(0x400000);
    hier.itlb().translate(0x7000);
    hier.itlb().translate(0x9000);
    hier.itlb().translate(0x400000); // back to MRU
}

TEST(HierarchyTest, LiveMshrsAndItlbRestoreAndReencodeIdentically)
{
    CacheHierarchy hier(smallParams());
    driveToLiveMshrs(hier);
    ASSERT_LT(hier.freeMshrs(), smallParams().l1iMshrs - 4);
    const std::vector<std::uint8_t> bytes = encodeHierarchy(hier);

    CacheHierarchy restored(smallParams());
    restored.demandAccess(blk(99), 0); // a restore replaces this state
    StateLoader loader(bytes.data(), bytes.size());
    restored.serializeState(loader);
    ASSERT_FALSE(loader.failed());
    EXPECT_EQ(loader.remaining(), 0u);
    EXPECT_EQ(encodeHierarchy(restored), bytes);
    EXPECT_EQ(restored.freeMshrs(), hier.freeMshrs());

    // Both copies retire the in-flight fills in the same order and
    // stay identical through further traffic.
    for (CacheHierarchy *h : {&hier, &restored}) {
        h->tick(1100);
        h->demandAccess(blk(2), 1100);
        h->prefetch(blk(8), Origin::Ext, 1101);
        h->itlb().translate(0xa000);
        h->tick(5000);
    }
    EXPECT_EQ(encodeHierarchy(restored), encodeHierarchy(hier));
}

/** One MSHR as the blob holds it (CacheHierarchy::Mshr's fields). */
struct MshrEntry
{
    Addr block = 0;
    Origin origin = Origin::Demand;
    Cycle readyAt = 0;
    bool flags[5] = {};

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        ar.value(block);
        ar.value(origin);
        ar.value(readyAt);
        for (bool &f : flags)
            ar.value(f);
    }
};

/** Why @p hier's blob, with its MSHR list changed by @p edit, does
 *  not restore (or "" when it does). The list follows the caches and
 *  the I-TLB. */
std::string
restoreWithMshrs(CacheHierarchy &hier,
                 const std::function<void(std::vector<MshrEntry> &)> &edit)
{
    const std::vector<std::uint8_t> bytes = encodeHierarchy(hier);
    StateWriter prefix;
    hier.l1i().serializeState(prefix);
    hier.l2().serializeState(prefix);
    hier.llc().serializeState(prefix);
    hier.itlb().serializeState(prefix);
    const std::size_t list_at = prefix.take().size();
    StateLoader list(bytes.data() + list_at, bytes.size() - list_at);
    std::vector<MshrEntry> mshrs;
    io(list, mshrs);
    EXPECT_FALSE(list.failed());
    EXPECT_EQ(mshrs.size(), smallParams().l1iMshrs - hier.freeMshrs());
    edit(mshrs);

    StateWriter edited;
    edited.bytes(bytes.data(), list_at);
    io(edited, mshrs);
    edited.bytes(bytes.data() + bytes.size() - list.remaining(),
                 list.remaining());
    CacheHierarchy restored(smallParams());
    return test::restoreError(restored, edited.take());
}

TEST(HierarchyTest, RestoreRejectsDuplicateMshrBlocks)
{
    CacheHierarchy hier(smallParams());
    driveToLiveMshrs(hier);
    EXPECT_EQ(restoreWithMshrs(hier, [](std::vector<MshrEntry> &) {}), "");
    EXPECT_EQ(restoreWithMshrs(hier,
                               [](std::vector<MshrEntry> &m) {
                                   ASSERT_GE(m.size(), 2u);
                                   m[1].block = m[0].block;
                               }),
              "two MSHRs hold the same block");
}

TEST(HierarchyTest, RestoreRejectsAnUnalignedMshrBlock)
{
    // The fill of an unaligned block panics in the cache's insert.
    CacheHierarchy hier(smallParams());
    driveToLiveMshrs(hier);
    EXPECT_EQ(restoreWithMshrs(hier,
                               [](std::vector<MshrEntry> &m) {
                                   ASSERT_GE(m.size(), 2u);
                                   m[1].block += 4;
                               }),
              "an MSHR's block is not block-aligned");
}

TEST(HierarchyTest, RestoreRejectsMoreMshrsThanTheFileHolds)
{
    CacheHierarchy hier(smallParams());
    driveToLiveMshrs(hier);
    const std::vector<std::uint8_t> bytes = encodeHierarchy(hier);

    HierarchyParams tiny = smallParams();
    tiny.l1iMshrs = 2;
    CacheHierarchy small(tiny);
    StateLoader loader(bytes.data(), bytes.size());
    small.serializeState(loader);
    EXPECT_TRUE(loader.failed());
}

} // namespace
} // namespace hp
