#include <gtest/gtest.h>

#include <vector>

#include "cache/tlb.hh"
#include "util/serialize.hh"

namespace hp
{
namespace
{

TEST(TlbTest, MissPaysWalkThenHits)
{
    Tlb tlb(4, 50);
    EXPECT_EQ(tlb.translate(0x400123), 50u);
    EXPECT_EQ(tlb.translate(0x400fff), 0u); // same page
    EXPECT_EQ(tlb.translate(0x401000), 50u); // next page
    EXPECT_EQ(tlb.accesses(), 3u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(TlbTest, LruReplacement)
{
    Tlb tlb(2, 10);
    tlb.translate(0x1000);
    tlb.translate(0x2000);
    tlb.translate(0x1000); // refresh page 1; page 2 is LRU
    tlb.translate(0x3000); // evicts page 2
    EXPECT_EQ(tlb.translate(0x1000), 0u);
    EXPECT_EQ(tlb.translate(0x2000), 10u); // was evicted
}

TEST(TlbTest, CapacityRespected)
{
    Tlb tlb(8, 10);
    for (Addr page = 0; page < 16; ++page)
        tlb.translate(page * kPageBytes);
    // The last 8 pages are resident, the first 8 are not.
    for (Addr page = 8; page < 16; ++page)
        EXPECT_EQ(tlb.translate(page * kPageBytes), 0u);
    EXPECT_EQ(tlb.translate(0), 10u);
}

TEST(TlbTest, EncodesRecencyOrderLikeAList)
{
    // The checkpoint layout: the page count, then the pages MRU
    // first. The counters are not in it.
    Tlb tlb(4, 10);
    for (Addr page : {0x1000, 0x2000, 0x3000, 0x1000, 0x4000, 0x5000})
        tlb.translate(page);
    StateWriter actual;
    tlb.serializeState(actual);

    std::vector<Addr> pages = {0x5000, 0x4000, 0x1000, 0x3000};
    StateWriter expected;
    io(expected, pages);
    const std::vector<std::uint8_t> bytes = actual.take();
    EXPECT_EQ(bytes, expected.take());

    // Restoring into a used TLB reproduces the recency order (0x3000
    // is the LRU page) and leaves its counters where they were, so
    // from the restore on both TLBs count the same deltas.
    Tlb back(4, 10);
    back.translate(0x9000);
    StateLoader loader(bytes.data(), bytes.size());
    back.serializeState(loader);
    ASSERT_FALSE(loader.failed());
    EXPECT_EQ(back.accesses(), 1u);
    EXPECT_EQ(back.misses(), 1u);
    for (Tlb *t : {&tlb, &back}) {
        const std::uint64_t accesses = t->accesses();
        const std::uint64_t misses = t->misses();
        t->translate(0x6000);
        EXPECT_EQ(t->translate(0x1000), 0u);
        EXPECT_EQ(t->translate(0x3000), 10u);
        EXPECT_EQ(t->accesses() - accesses, 3u);
        EXPECT_EQ(t->misses() - misses, 2u);
    }
}

} // namespace
} // namespace hp
