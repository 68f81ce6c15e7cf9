#include <gtest/gtest.h>

#include "cache/cache.hh"

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

TEST(CacheTest, MissThenHit)
{
    SetAssocCache cache("t", 4 * 1024, 4);
    EXPECT_FALSE(cache.access(blk(0)).has_value());
    cache.insert(blk(0), Origin::Demand);
    auto hit = cache.access(blk(0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->origin, Origin::Demand);
}

TEST(CacheTest, FirstUseFlagOnlyOnce)
{
    SetAssocCache cache("t", 4 * 1024, 4);
    cache.insert(blk(1), Origin::Ext);
    auto first = cache.access(blk(1));
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->firstUse);
    EXPECT_EQ(first->origin, Origin::Ext);
    auto second = cache.access(blk(1));
    ASSERT_TRUE(second.has_value());
    EXPECT_FALSE(second->firstUse);
}

TEST(CacheTest, ContainsDoesNotTouchState)
{
    SetAssocCache cache("t", 4 * 1024, 4);
    cache.insert(blk(2), Origin::Fdip);
    EXPECT_TRUE(cache.contains(blk(2)));
    auto hit = cache.access(blk(2));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->firstUse); // contains() must not consume firstUse

    // Nor refresh recency: blk(0) stays LRU and is the victim.
    SetAssocCache one_set("t", 2 * kBlockBytes, 2);
    one_set.insert(blk(0), Origin::Demand);
    one_set.insert(blk(1), Origin::Demand);
    EXPECT_TRUE(one_set.contains(blk(0)));
    EXPECT_EQ(one_set.insert(blk(2), Origin::Demand).block, blk(0));
}

TEST(CacheTest, LruEviction)
{
    // One set: 64 B * 2 ways.
    SetAssocCache cache("t", 2 * kBlockBytes, 2);
    ASSERT_EQ(cache.numSets(), 1u);
    cache.insert(blk(0), Origin::Demand);
    cache.insert(blk(1), Origin::Demand);
    cache.access(blk(0)); // 1 becomes LRU
    EvictInfo evicted = cache.insert(blk(2), Origin::Demand);
    ASSERT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.block, blk(1));
    EXPECT_TRUE(cache.contains(blk(0)));
    EXPECT_FALSE(cache.contains(blk(1)));
}

TEST(CacheTest, EvictInfoCarriesOriginAndUse)
{
    SetAssocCache cache("t", 2 * kBlockBytes, 2);
    cache.insert(blk(0), Origin::Ext);
    cache.insert(blk(1), Origin::Demand);
    cache.access(blk(1));
    // blk(0) is LRU and unused.
    EvictInfo evicted = cache.insert(blk(2), Origin::Demand);
    ASSERT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.block, blk(0));
    EXPECT_EQ(evicted.origin, Origin::Ext);
    EXPECT_FALSE(evicted.used);
}

TEST(CacheTest, ReinsertResidentBlockNoEviction)
{
    SetAssocCache cache("t", 2 * kBlockBytes, 2);
    cache.insert(blk(0), Origin::Demand);
    EvictInfo evicted = cache.insert(blk(0), Origin::Ext);
    EXPECT_FALSE(evicted.valid);
}

TEST(CacheTest, MarkUsedSuppressesFirstUse)
{
    SetAssocCache cache("t", 4 * 1024, 4);
    cache.insert(blk(4), Origin::Ext);
    cache.markUsed(blk(4));
    auto hit = cache.access(blk(4));
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(hit->firstUse);
}

TEST(CacheTest, NonPowerOfTwoSetCount)
{
    // 3 sets x 4 ways: used by the fractional instruction shares.
    SetAssocCache cache("t", 12 * kBlockBytes, 4);
    EXPECT_EQ(cache.numSets(), 3u);
    for (unsigned i = 0; i < 12; ++i)
        cache.insert(blk(i), Origin::Demand);
    unsigned resident = 0;
    for (unsigned i = 0; i < 12; ++i)
        resident += cache.contains(blk(i));
    EXPECT_GT(resident, 8u); // nearly all fit
}

} // namespace
} // namespace hp
