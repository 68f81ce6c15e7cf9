#include <gtest/gtest.h>

#include <set>

#include "prefetch/eip.hh"
#include "sim/simulator.hh"
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

std::vector<Addr>
drainQueue(Prefetcher &pf)
{
    std::vector<Addr> blocks;
    Addr block;
    while (pf.popRequest(block))
        blocks.push_back(block);
    return blocks;
}

TEST(EipTest, EntanglesMissWithLatencyMatchedTrigger)
{
    Eip pf;
    Cycle now = 0;
    // Fetch blocks 0..9 at 10-cycle intervals, then miss block 50 with
    // a 40-cycle latency: the trigger should be ~4 blocks back.
    for (unsigned i = 0; i < 10; ++i) {
        pf.onDemandAccess(blk(i), true, now, 0);
        now += 10;
    }
    pf.onDemandAccess(blk(50), false, now, 40);
    drainQueue(pf);

    // Fetch times were 0,10,...,90 and the miss lands at t=100 with a
    // 40-cycle latency, so the youngest viable trigger is the block
    // fetched at t=60 — blk(6). Re-fetch it: the miss target (and its
    // following basic-block lines) must be prefetched.
    pf.onDemandAccess(blk(6), true, now + 100, 0);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    EXPECT_TRUE(unique.count(blk(50)));
    // Basic-block run: following lines come along.
    EXPECT_TRUE(unique.count(blk(51)));
}

TEST(EipTest, NoEntanglementOnHits)
{
    Eip pf;
    Cycle now = 0;
    for (unsigned i = 0; i < 10; ++i)
        pf.onDemandAccess(blk(i), true, now++, 0);
    // Nothing was a miss: re-fetching produces no prefetches.
    pf.onDemandAccess(blk(0), true, now, 0);
    EXPECT_TRUE(drainQueue(pf).empty());
}

TEST(EipTest, FdipPrefetchesTrainHistory)
{
    Eip pf;
    Cycle now = 0;
    // History is built from FDIP prefetches only.
    for (unsigned i = 0; i < 8; ++i) {
        pf.onFdipPrefetch(blk(i), now);
        now += 10;
    }
    // Prefetch times were 0,10,...,70; the miss lands at t=80 with a
    // 30-cycle latency -> trigger is the block prefetched at t=50.
    pf.onDemandAccess(blk(60), false, now, 30);
    drainQueue(pf);
    pf.onFdipPrefetch(blk(5), now + 100);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    EXPECT_TRUE(unique.count(blk(60)));
}

TEST(EipTest, MultipleTargetsPerSource)
{
    Eip pf;
    Cycle now = 0;
    // The same trigger precedes two different misses over time.
    for (unsigned pass = 0; pass < 2; ++pass) {
        pf.onDemandAccess(blk(1), true, now, 0);
        now += 50;
        Addr target = pass == 0 ? blk(100) : blk(200);
        pf.onDemandAccess(target, false, now, 40);
        now += 50;
        drainQueue(pf);
    }
    pf.onDemandAccess(blk(1), true, now, 0);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    // Both recorded targets are issued (the source of EIP's low
    // accuracy and high coverage).
    EXPECT_TRUE(unique.count(blk(100)));
    EXPECT_TRUE(unique.count(blk(200)));
}

TEST(EipTest, TargetCapRespected)
{
    EipConfig config;
    config.maxTargets = 2;
    Eip pf(config);
    Cycle now = 0;
    for (unsigned pass = 0; pass < 5; ++pass) {
        pf.onDemandAccess(blk(1), true, now, 0);
        now += 50;
        pf.onDemandAccess(blk(100 + pass * 10), false, now, 40);
        now += 50;
        drainQueue(pf);
    }
    pf.onDemandAccess(blk(1), true, now, 0);
    auto blocks = drainQueue(pf);
    // At most maxTargets * targetRunBlocks prefetches per trigger.
    EXPECT_LE(blocks.size(),
              std::size_t(config.maxTargets) * config.targetRunBlocks);
}

TEST(EipTest, EntanglesDuringAColdFastForward)
{
    // Fast-forward passes each functional miss's fill latency, so EIP
    // trains outside the detailed loop too: a trigger fetched again
    // issues the targets entangled with it.
    SimConfig config;
    config.workload = "caddy";
    config.prefetcher = PrefetcherKind::Eip;
    Simulator sim(config);
    sim.fastForward(300'000);
    EXPECT_GT(sim.stats().value("ext.issued"), 0u);
}

/** Fetches 32 blocks and misses on one, entangling a target. */
void
train(Eip &pf)
{
    Cycle now = 0;
    for (unsigned i = 0; i < 32; ++i) {
        pf.onDemandAccess(blk(i), true, now, 0);
        now += 10;
    }
    pf.onDemandAccess(blk(500), false, now, 40);
}

std::vector<std::uint8_t>
saved(Prefetcher &pf)
{
    StateWriter writer;
    pf.serializeState(writer);
    return writer.take();
}

/** Restores @p bytes into @p pf; true if the loader accepted them. */
bool
restores(Prefetcher &pf, const std::vector<std::uint8_t> &bytes)
{
    StateLoader loader(bytes.data(), bytes.size());
    pf.serializeState(loader);
    return !loader.failed();
}

TEST(EipTest, RestoreRoundTrips)
{
    Eip from;
    train(from);
    const std::vector<std::uint8_t> bytes = saved(from);
    Eip into;
    EXPECT_TRUE(restores(into, bytes));
    EXPECT_EQ(saved(into), bytes);
}

TEST(EipTest, RestoreRejectsForeignGeometry)
{
    // A 16-entry 2-way table's state must not load into the default
    // 4096 x 8 table, whose lookups index by the configured geometry.
    EipConfig small;
    small.tableEntries = 16;
    small.tableWays = 2;
    Eip from(small);
    train(from);
    Eip into;
    EXPECT_FALSE(restores(into, saved(from)));
}

TEST(EipTest, RestoreRejectsTooManyTargets)
{
    // Three targets entangled with blk(1), restored where each entry
    // holds at most two.
    Eip from;
    Cycle now = 0;
    for (unsigned pass = 0; pass < 3; ++pass) {
        from.onDemandAccess(blk(1), true, now, 0);
        now += 50;
        from.onDemandAccess(blk(100 + pass * 10), false, now, 40);
        now += 50;
    }
    EipConfig two;
    two.maxTargets = 2;
    Eip into(two);
    EXPECT_FALSE(restores(into, saved(from)));
}

TEST(EipTest, RestoreRejectsALongerHistory)
{
    Eip from; // 16 history entries, all filled by train()
    train(from);
    EipConfig shorter;
    shorter.historyEntries = 8;
    Eip into(shorter);
    EXPECT_FALSE(restores(into, saved(from)));
}

TEST(EipTest, RestoreRejectsAnUnalignedTarget)
{
    // Fetching the source pushes its targets as prefetches, and the
    // fill of an unaligned block panics in the cache's insert.
    Eip from;
    Cycle now = 0;
    for (unsigned i = 0; i < 32; ++i) {
        from.onDemandAccess(blk(i), true, now, 0);
        now += 10;
    }
    from.onDemandAccess(blk(500) + 4, false, now, 40);
    Eip into;
    EXPECT_EQ(test::restoreError<Prefetcher>(into, saved(from)),
              "an EIP target is not block-aligned");
}

TEST(EipTest, StorageMatchesPaperClass)
{
    Eip pf;
    double kb = double(pf.storageBits()) / 8.0 / 1024.0;
    // Paper: 40 KB configuration.
    EXPECT_GT(kb, 30.0);
    EXPECT_LT(kb, 60.0);
}

} // namespace
} // namespace hp
