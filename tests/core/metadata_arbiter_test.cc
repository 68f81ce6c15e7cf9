#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/metadata_buffer.hh"
#include "util/rng.hh"

namespace hp
{
namespace
{

/** A core's metadata-port counters, read through its registry. */
struct PortCounters
{
    std::uint64_t reads = 0;
    std::uint64_t stallCycles = 0;
};

PortCounters
portCounters(const CacheHierarchy &hier)
{
    StatsRegistry reg;
    hier.registerStats(reg);
    return {reg.value("mt.metadata_arbiter_reads"),
            reg.value("mt.metadata_arbiter_stall_cycles")};
}

TEST(MetadataReadArbiterTest, DisabledPassesThrough)
{
    MetadataReadArbiter arb;
    EXPECT_FALSE(arb.enabled());
    EXPECT_EQ(arb.acquire(368, 100), 100u);
    EXPECT_EQ(arb.acquire(368, 100), 100u);

    // A private hierarchy's port is unmodeled: nothing to count.
    CacheHierarchy hier{HierarchyParams{}};
    hier.metadataRead(368, 100);
    hier.metadataRead(368, 100);
    const PortCounters c = portCounters(hier);
    EXPECT_EQ(c.reads, 0u);
    EXPECT_EQ(c.stallCycles, 0u);
}

TEST(MetadataReadArbiterTest, BackToBackReadsQueue)
{
    MetadataReadArbiter arb(8);
    // 368 bytes at 8 B/cycle = 46 busy cycles.
    EXPECT_EQ(arb.acquire(368, 10), 10u);
    EXPECT_EQ(arb.nextFree(), 56u);
    // A second read in the same cycle waits for the port.
    EXPECT_EQ(arb.acquire(368, 10), 56u);
    // After the port drains, reads start immediately again.
    EXPECT_EQ(arb.acquire(8, 500), 500u);

    // The same two reads from two cores sharing the port: the second
    // core waits the 46 cycles, and each core counts its own wait.
    const HierarchyParams params;
    auto shared = std::make_shared<SharedLevels>(params, 8);
    CacheHierarchy first(params, shared), second(params, shared);
    first.metadataRead(368, 10);
    second.metadataRead(368, 10);
    const PortCounters a = portCounters(first);
    const PortCounters b = portCounters(second);
    EXPECT_EQ(a.reads, 1u);
    EXPECT_EQ(a.stallCycles, 0u);
    EXPECT_EQ(b.reads, 1u);
    EXPECT_EQ(b.stallCycles, 46u);
}

TEST(MetadataReadArbiterTest, CeilingDivisionOnBusyTime)
{
    MetadataReadArbiter arb(16);
    EXPECT_EQ(arb.acquire(1, 0), 0u);
    EXPECT_EQ(arb.nextFree(), 1u); // ceil(1/16)
    EXPECT_EQ(arb.acquire(17, 1), 1u);
    EXPECT_EQ(arb.nextFree(), 3u); // 1 + ceil(17/16)
}

/**
 * Property: against a reference model (scalar replay of the FCFS
 * port), a random read sequence must produce identical start cycles,
 * and a core issuing the same sequence through its hierarchy must
 * count the reference's stall total.
 */
TEST(MetadataReadArbiterTest, PropertyMatchesReferenceModel)
{
    Rng rng(0xa151);
    for (int round = 0; round < 20; ++round) {
        const unsigned bpc = 1 + unsigned(rng.nextUint(32));
        MetadataReadArbiter arb(bpc);
        const HierarchyParams params;
        CacheHierarchy hier(params,
                            std::make_shared<SharedLevels>(params, bpc));

        Cycle ref_next_free = 0;
        std::uint64_t ref_stalls = 0;
        Cycle now = 0;
        for (int i = 0; i < 200; ++i) {
            now += rng.nextUint(60);
            const std::uint64_t bytes = 1 + rng.nextUint(1024);

            const Cycle ref_start = std::max(ref_next_free, now);
            ref_stalls += ref_start - now;
            ref_next_free = ref_start + (bytes + bpc - 1) / bpc;

            EXPECT_EQ(arb.acquire(bytes, now), ref_start);
            hier.metadataRead(bytes, now);
        }
        EXPECT_EQ(arb.nextFree(), ref_next_free);
        const PortCounters c = portCounters(hier);
        EXPECT_EQ(c.reads, 200u);
        EXPECT_EQ(c.stallCycles, ref_stalls);
    }
}

TEST(MetadataBufferPartitionTest, RangesTileTheBuffer)
{
    MetadataBuffer buffer(32 * kSegmentEncodedBytes);
    buffer.setPartitions(3);
    EXPECT_EQ(buffer.partitions(), 3u);

    SegIdx covered = 0;
    for (unsigned t = 0; t < 3; ++t) {
        const auto [lo, hi] = buffer.partitionRange(t);
        EXPECT_EQ(lo, covered) << "partitions must be contiguous";
        EXPECT_GE(hi - lo, 2u) << "two segments per partition";
        covered = hi;
    }
    EXPECT_EQ(covered, SegIdx(buffer.numSegments()));
}

/**
 * Property: partitioned allocation must (a) stay inside the active
 * tenant's quota range, and (b) advance exactly like a per-tenant
 * reference cursor confined to that range — so one tenant's records
 * can never reclaim another's.
 */
TEST(MetadataBufferPartitionTest, PropertyAllocationsStayInQuota)
{
    Rng rng(0x9b1d);
    for (unsigned parts : {2u, 3u, 5u}) {
        MetadataBuffer buffer(64 * kSegmentEncodedBytes);
        buffer.setPartitions(parts);

        std::vector<SegIdx> ref_cursor(parts);
        for (unsigned t = 0; t < parts; ++t)
            ref_cursor[t] = buffer.partitionRange(t).first;

        for (int i = 0; i < 800; ++i) {
            const unsigned t = unsigned(rng.nextUint(parts));
            buffer.setActiveTenant(t);
            const auto [lo, hi] = buffer.partitionRange(t);

            auto [idx, invalidated] =
                buffer.allocate(0x100 + t, rng.nextBool(0.5));
            EXPECT_EQ(idx, ref_cursor[t]);
            EXPECT_GE(idx, lo);
            EXPECT_LT(idx, hi);
            if (invalidated) {
                // A reclaimed head can only be the same tenant's: the
                // owner id encodes the tenant in this test.
                EXPECT_EQ(*invalidated, 0x100u + t);
            }
            ref_cursor[t] = idx + 1 >= hi ? lo : idx + 1;
        }
    }
}

TEST(MetadataBufferPartitionTest, UnpartitionedMatchesDefaultBuffer)
{
    // With partitioning never enabled, allocation must be the classic
    // single global circular cursor, byte-for-byte.
    MetadataBuffer a(16 * kSegmentEncodedBytes);
    MetadataBuffer b(16 * kSegmentEncodedBytes);
    b.setActiveTenant(0); // allowed and inert while unpartitioned

    Rng rng(0x77);
    for (int i = 0; i < 100; ++i) {
        const std::uint32_t owner = std::uint32_t(rng.nextUint(8));
        const bool head = rng.nextBool(0.3);
        auto ra = a.allocate(owner, head);
        auto rb = b.allocate(owner, head);
        EXPECT_EQ(ra.first, rb.first);
        EXPECT_EQ(ra.second, rb.second);
    }
}

} // namespace
} // namespace hp
