#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/hierarchical_prefetcher.hh"
#include "../test_helpers.hh"

namespace hp
{

/** Test-only access to the record cursors a restore must bound. */
class HierarchicalPrefetcherProbe
{
  public:
    static SegIdx &recordHead(HierarchicalPrefetcher &pf)
    {
        return pf.recordHead_;
    }
    static SegIdx &recordCur(HierarchicalPrefetcher &pf)
    {
        return pf.recordCur_;
    }
};

namespace
{

DynInst
taggedCall(Addr pc, Addr target)
{
    DynInst inst;
    inst.pc = pc;
    inst.kind = InstKind::Call;
    inst.taken = true;
    inst.target = target;
    inst.tagged = true;
    return inst;
}

DynInst
plain(Addr pc)
{
    DynInst inst;
    inst.pc = pc;
    inst.kind = InstKind::Plain;
    return inst;
}

/** Drains every queued prefetch after ticking at @p now. */
std::vector<Addr>
drain(HierarchicalPrefetcher &pf, Cycle now)
{
    pf.tick(now);
    std::vector<Addr> blocks;
    Addr block;
    while (pf.popRequest(block))
        blocks.push_back(block);
    return blocks;
}

/**
 * Executes one Bundle: a tagged call to @p body_base, then @p blocks
 * cache blocks of straight-line code. Returns the cycle after.
 */
Cycle
runBundle(HierarchicalPrefetcher &pf, Addr call_pc, Addr body_base,
          unsigned blocks, Cycle now)
{
    pf.onCommit(taggedCall(call_pc, body_base), 1, now++);
    for (unsigned b = 0; b < blocks; ++b) {
        for (unsigned i = 0; i < kInstsPerBlock; ++i) {
            pf.onCommit(plain(body_base + Addr(b) * kBlockBytes +
                              Addr(i) * kInstBytes), 1,
                        now);
        }
        now += 4;
    }
    return now;
}

struct HierFixture
{
    HierarchicalConfig config;
    NullMetadataMemory memory;

    HierFixture()
    {
        config.trackBundleStats = true;
    }
};

TEST(HierarchicalPrefetcherTest, FirstExecutionRecordsOnly)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    Cycle now = runBundle(pf, 0x1000, 0x400000, 10, 0);
    auto blocks = drain(pf, now);
    EXPECT_TRUE(blocks.empty()); // nothing recorded yet at trigger time
    EXPECT_EQ(pf.stats().matMisses, 1u);
    EXPECT_EQ(pf.stats().replaysStarted, 0u);
}

TEST(HierarchicalPrefetcherTest, SecondExecutionReplaysRecording)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    constexpr unsigned kBlocks = 10;
    Cycle now = runBundle(pf, 0x1000, 0x400000, kBlocks, 0);
    // Second trigger of the same Bundle: the first execution's
    // footprint must be replayed.
    now = runBundle(pf, 0x1000, 0x400000, kBlocks, now);
    auto blocks = drain(pf, now);

    EXPECT_EQ(pf.stats().matHits, 1u);
    EXPECT_EQ(pf.stats().replaysStarted, 1u);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    // The full footprint: every body block.
    for (unsigned b = 0; b < kBlocks; ++b)
        EXPECT_TRUE(unique.count(0x400000 + Addr(b) * kBlockBytes));
}

TEST(HierarchicalPrefetcherTest, BundleIdDependsOnTarget)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    Cycle now = runBundle(pf, 0x1000, 0x400000, 4, 0);
    // Same call site, different target -> different Bundle -> miss.
    now = runBundle(pf, 0x1000, 0x800000, 4, now);
    EXPECT_EQ(pf.stats().matMisses, 2u);
    EXPECT_EQ(pf.stats().matHits, 0u);
}

TEST(HierarchicalPrefetcherTest, SupersedeKeepsOnlyLastFootprint)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    Addr entry = 0x400000;
    auto run_variant = [&pf, entry](unsigned skip_blocks, Cycle now) {
        pf.onCommit(taggedCall(0x1000, entry), 1, now++);
        // Entry block always touched, then a variant suffix.
        for (unsigned b = skip_blocks; b < skip_blocks + 6; ++b) {
            pf.onCommit(
                plain(entry + Addr(b) * kBlockBytes), 1, now);
            now += 2;
        }
        return now;
    };

    Cycle now = run_variant(0, 0);   // exec 1: blocks 0..5
    now = run_variant(32, now);      // exec 2: blocks 32..37
    now = run_variant(64, now);      // exec 3: replay sees exec 2
    auto blocks = drain(pf, now);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    // Replay at exec 3 must contain exec 2's blocks, not exec 1's.
    EXPECT_TRUE(unique.count(entry + 32 * kBlockBytes));
    EXPECT_FALSE(unique.count(entry + 0 * kBlockBytes));
}

TEST(HierarchicalPrefetcherTest, MetadataTrafficAccounted)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    Cycle now = runBundle(pf, 0x1000, 0x400000, 8, 0);
    EXPECT_GT(pf.stats().metadataWriteBytes, 0u);
    now = runBundle(pf, 0x1000, 0x400000, 8, now);
    EXPECT_GT(pf.stats().metadataReadBytes, 0u);
}

TEST(HierarchicalPrefetcherTest, MetadataReadLatencyDelaysReplay)
{
    // With a slow metadata service, replay blocks must not be ready
    // before the read completes.
    class SlowMemory : public MetadataMemory
    {
      public:
        Cycle
        metadataRead(std::uint64_t, Cycle now) override
        {
            return now + 1000;
        }
        void metadataWrite(std::uint64_t, Cycle) override {}
    };

    HierarchicalConfig config;
    SlowMemory memory;
    HierarchicalPrefetcher pf(config, memory);

    Cycle now = runBundle(pf, 0x1000, 0x400000, 4, 0);
    Cycle trigger = now;
    pf.onCommit(taggedCall(0x1000, 0x400000), 1, trigger);
    // Immediately after the trigger nothing can be issued yet.
    auto early = drain(pf, trigger + 1);
    EXPECT_TRUE(early.empty());
    auto late = drain(pf, trigger + 2000);
    EXPECT_FALSE(late.empty());
}

TEST(HierarchicalPrefetcherTest, RecordTruncatedAtMaxSegments)
{
    HierFixture fx;
    fx.config.maxSegmentsPerBundle = 2;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    // Touch far more regions than 2 segments can hold (64 regions).
    Cycle now = 0;
    pf.onCommit(taggedCall(0x1000, 0x400000), 1, now++);
    for (unsigned r = 0; r < 200; ++r) {
        pf.onCommit(plain(0x400000 + Addr(r) * kRegionBlocks *
                          kBlockBytes), 1,
                    now++);
    }
    pf.onCommit(taggedCall(0x1000, 0x800000), 1, now++); // close record
    EXPECT_GT(pf.stats().recordsTruncated, 0u);
}

TEST(HierarchicalPrefetcherTest, TaggedReturnStartsBundle)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    DynInst ret;
    ret.pc = 0x2000;
    ret.kind = InstKind::Return;
    ret.taken = true;
    ret.target = 0x3000;
    ret.tagged = true;

    pf.onCommit(ret, 1, 0);
    EXPECT_EQ(pf.stats().bundlesStarted, 1u);
    EXPECT_EQ(pf.stats().taggedCommits, 1u);
}

TEST(HierarchicalPrefetcherTest, UntaggedControlFlowIgnored)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    DynInst call;
    call.pc = 0x2000;
    call.kind = InstKind::Call;
    call.taken = true;
    call.target = 0x3000;
    call.tagged = false;

    pf.onCommit(call, 1, 0);
    EXPECT_EQ(pf.stats().bundlesStarted, 0u);
}

TEST(HierarchicalPrefetcherTest, StorageBudgetNearPaper)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);
    double kb = double(pf.storageBits()) / 8.0 / 1024.0;
    // 1.94 KB table + small Compression Buffer.
    EXPECT_LT(kb, 2.5);
    EXPECT_GT(kb, 1.9);
}

TEST(HierarchicalPrefetcherTest, BundleStatsTrackJaccard)
{
    HierFixture fx;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    Cycle now = runBundle(pf, 0x1000, 0x400000, 10, 0);
    now = runBundle(pf, 0x1000, 0x400000, 10, now);
    now = runBundle(pf, 0x1000, 0x400000, 10, now);
    // Identical executions -> Jaccard 1.0, a million ppm each.
    EXPECT_GT(pf.stats().bundleJaccardSamples, 0u);
    EXPECT_EQ(pf.stats().bundleJaccardSumPpm,
              pf.stats().bundleJaccardSamples * 1'000'000);
    EXPECT_EQ(pf.stats().dynamicBundles, 1u);
}

TEST(HierarchicalPrefetcherTest, BufferWrapInvalidatesTableEntries)
{
    HierFixture fx;
    // Tiny buffer: 4 segments.
    fx.config.metadataBufferBytes = 4 * kSegmentEncodedBytes;
    HierarchicalPrefetcher pf(fx.config, fx.memory);

    // Record several distinct bundles, each needing >= 1 segment, so
    // the circular allocator must reclaim heads.
    Cycle now = 0;
    for (unsigned i = 0; i < 12; ++i) {
        now = runBundle(pf, 0x1000, 0x400000 + Addr(i) * 0x100000, 40,
                        now);
    }
    EXPECT_GT(pf.stats().matInvalidations, 0u);
}

/**
 * Saves a prefetcher in mid-record whose @p cursor (recordHead_ or
 * recordCur_) is set to @p value, and returns why a fresh prefetcher
 * rejects the blob, or "" when it restores.
 */
std::string
restoreErrorWith(SegIdx &(*cursor)(HierarchicalPrefetcher &), SegIdx value)
{
    HierFixture fx;
    HierarchicalPrefetcher from(fx.config, fx.memory);
    runBundle(from, 0x1000, 0x80000, 4, 0);
    cursor(from) = value;
    HierarchicalPrefetcher into(fx.config, fx.memory);
    return test::restoreError<Prefetcher>(into,
                                          test::saved<Prefetcher>(from));
}

/** Segments of the default 512 KB Metadata Buffer. */
const SegIdx kSegments = SegIdx(512 * 1024 / kSegmentEncodedBytes);

TEST(HierarchicalPrefetcherTest, RestoreRejectsARecordCursorPastTheBuffer)
{
    // endRecord and appendRegion write through recordCur_.
    EXPECT_EQ(restoreErrorWith(HierarchicalPrefetcherProbe::recordCur,
                               kSegments - 1),
              "");
    EXPECT_EQ(restoreErrorWith(HierarchicalPrefetcherProbe::recordCur,
                               kSegments),
              "hierarchical prefetcher: the record names a segment past "
              "its buffer");
}

TEST(HierarchicalPrefetcherTest, RestoreRejectsARecordHeadPastTheBuffer)
{
    EXPECT_EQ(restoreErrorWith(HierarchicalPrefetcherProbe::recordHead,
                               kNoSeg),
              "");
    EXPECT_EQ(restoreErrorWith(HierarchicalPrefetcherProbe::recordHead,
                               kSegments + 7),
              "hierarchical prefetcher: the record names a segment past "
              "its buffer");
}

} // namespace
} // namespace hp
