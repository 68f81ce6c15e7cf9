/**
 * @file
 * Unit tests for the MissAttribution state machine: classification
 * priority, episode consumption, merge/retry semantics, counter
 * resets, and checkpoint serialization.
 */

#include <gtest/gtest.h>

#include "obs/miss_attribution.hh"
#include "util/serialize.hh"

namespace
{

using namespace hp;

std::uint64_t
count(const MissAttribution &attr, MissCause cause)
{
    return attr.counters().count[static_cast<unsigned>(cause)];
}

std::uint64_t
latency(const MissAttribution &attr, MissCause cause)
{
    return attr.counters().latencyCycles[static_cast<unsigned>(cause)];
}

TEST(MissAttribution, FreshMissIsNeverPrefetched)
{
    MissAttribution attr;
    attr.onMissFill(0x1000, 160);
    EXPECT_EQ(count(attr, MissCause::NeverPrefetched), 1u);
    EXPECT_EQ(latency(attr, MissCause::NeverPrefetched), 160u);
    EXPECT_EQ(attr.counters().total(), 1u);
}

TEST(MissAttribution, PrefetchedEvictedEpisode)
{
    MissAttribution attr;
    attr.onPrefetchAccepted(0x40);
    attr.onEvicted(0x40, /*prefetch_origin=*/true, /*used=*/false);
    attr.onMissFill(0x40, 50);
    EXPECT_EQ(count(attr, MissCause::PrefetchedEvicted), 1u);
    EXPECT_EQ(latency(attr, MissCause::PrefetchedEvicted), 50u);
}

TEST(MissAttribution, UsedOrDemandEvictionIsDemandEvicted)
{
    MissAttribution attr;
    // A used prefetch counts as demand residency once evicted.
    attr.onEvicted(0x40, /*prefetch_origin=*/true, /*used=*/true);
    attr.onMissFill(0x40, 14);
    EXPECT_EQ(count(attr, MissCause::DemandEvicted), 1u);

    attr.onEvicted(0x80, /*prefetch_origin=*/false, /*used=*/true);
    attr.onMissFill(0x80, 14);
    EXPECT_EQ(count(attr, MissCause::DemandEvicted), 2u);
}

TEST(MissAttribution, DroppedPrefetchIsResourceContention)
{
    MissAttribution attr;
    attr.onPrefetchDropped(0x40);
    attr.onMissFill(0x40, 160);
    EXPECT_EQ(count(attr, MissCause::ResourceContention), 1u);
}

TEST(MissAttribution, AcceptedPrefetchClearsStaleDrop)
{
    MissAttribution attr;
    attr.onPrefetchDropped(0x40);
    attr.onPrefetchAccepted(0x40); // A later prefetch made it in.
    attr.onMissFill(0x40, 160);
    EXPECT_EQ(count(attr, MissCause::ResourceContention), 0u);
    EXPECT_EQ(count(attr, MissCause::NeverPrefetched), 1u);
}

TEST(MissAttribution, ClassificationPriority)
{
    // prefetched_evicted beats resource_contention beats
    // demand_evicted.
    MissAttribution attr;
    attr.onEvicted(0x40, true, false); // prefetchEvicted
    attr.onPrefetchDropped(0x40);
    attr.onEvicted(0x40, false, true); // demandEvicted too
    attr.onMissFill(0x40, 1);
    EXPECT_EQ(count(attr, MissCause::PrefetchedEvicted), 1u);

    attr.onPrefetchDropped(0x80);
    attr.onEvicted(0x80, false, true);
    attr.onMissFill(0x80, 1);
    EXPECT_EQ(count(attr, MissCause::ResourceContention), 1u);
}

TEST(MissAttribution, EpisodeConsumedByFill)
{
    MissAttribution attr;
    attr.onEvicted(0x40, true, false);
    attr.onMissFill(0x40, 10);
    // The history described the first miss only; with no new events
    // the next miss of the block is a plain re-miss.
    attr.onMissFill(0x40, 10);
    EXPECT_EQ(count(attr, MissCause::PrefetchedEvicted), 1u);
    EXPECT_EQ(count(attr, MissCause::NeverPrefetched), 1u);
}

TEST(MissAttribution, MergeIntoPrefetchIsLate)
{
    MissAttribution attr;
    attr.onMissMerge(0x40, /*prefetch_origin=*/true, /*wait=*/7);
    EXPECT_EQ(count(attr, MissCause::PrefetchLate), 1u);
    EXPECT_EQ(latency(attr, MissCause::PrefetchLate), 7u);
}

TEST(MissAttribution, MergeIntoDemandRepeatsEpisodeCause)
{
    MissAttribution attr;
    attr.onEvicted(0x40, true, false);
    attr.onMissFill(0x40, 50); // prefetched_evicted episode
    attr.onMissMerge(0x40, /*prefetch_origin=*/false, /*wait=*/3);
    EXPECT_EQ(count(attr, MissCause::PrefetchedEvicted), 2u);
    EXPECT_EQ(latency(attr, MissCause::PrefetchedEvicted), 53u);

    // Unknown block: the allocation must have been never_prefetched.
    attr.onMissMerge(0x80, false, 2);
    EXPECT_EQ(count(attr, MissCause::NeverPrefetched), 1u);
}

TEST(MissAttribution, RetryIsResourceContention)
{
    MissAttribution attr;
    attr.onMissRetry(0x40);
    EXPECT_EQ(count(attr, MissCause::ResourceContention), 1u);
    EXPECT_EQ(latency(attr, MissCause::ResourceContention), 1u);
}

TEST(MissAttribution, WrongPathStructurallyZero)
{
    MissAttribution attr;
    attr.onPrefetchDropped(0x40);
    attr.onEvicted(0x40, true, false);
    attr.onMissFill(0x40, 1);
    attr.onMissMerge(0x40, true, 1);
    attr.onMissRetry(0x40);
    EXPECT_EQ(count(attr, MissCause::WrongPath), 0u);
}

TEST(MissAttribution, SerializeRoundTrip)
{
    MissAttribution attr;
    attr.onEvicted(0x40, true, false);
    attr.onMissFill(0x40, 50);
    attr.onPrefetchDropped(0x80);
    attr.onMissMerge(0xc0, true, 9);

    StateWriter writer;
    attr.serializeState(writer);
    std::vector<std::uint8_t> blob = writer.take();

    // A restore into a used instance replaces its line history and
    // leaves its counters where they were.
    MissAttribution restored;
    restored.onMissRetry(0x1000);
    const MissAttribution::Counters used = restored.counters();
    StateLoader loader(blob.data(), blob.size());
    restored.serializeState(loader);
    ASSERT_FALSE(loader.failed());
    EXPECT_EQ(loader.remaining(), 0u);
    EXPECT_EQ(restored.counters().count, used.count);
    EXPECT_EQ(restored.counters().latencyCycles, used.latencyCycles);
    EXPECT_EQ(restored.trackedLines(), attr.trackedLines());

    // Behavioural equivalence: the restored line history classifies
    // the same way as the original (0x80 still carries its drop
    // record, and 0x40's lastCause is repeated by a demand merge), so
    // both count the same deltas.
    for (MissAttribution *a : {&attr, &restored}) {
        const std::uint64_t contention =
            count(*a, MissCause::ResourceContention);
        const std::uint64_t evicted =
            count(*a, MissCause::PrefetchedEvicted);
        a->onMissFill(0x80, 1);
        EXPECT_EQ(count(*a, MissCause::ResourceContention) - contention,
                  1u);
        a->onMissMerge(0x40, false, 1);
        EXPECT_EQ(count(*a, MissCause::PrefetchedEvicted) - evicted, 1u);
    }
}

TEST(MissAttribution, CauseNamesAreStableAndDistinct)
{
    for (unsigned i = 0; i < kNumMissCauses; ++i) {
        const char *name = missCauseName(static_cast<MissCause>(i));
        EXPECT_STRNE(name, "?");
        for (unsigned j = i + 1; j < kNumMissCauses; ++j)
            EXPECT_STRNE(name,
                         missCauseName(static_cast<MissCause>(j)));
    }
    EXPECT_STREQ(missCauseName(MissCause::NeverPrefetched),
                 "never_prefetched");
    EXPECT_STREQ(missCauseName(MissCause::WrongPath), "wrong_path");
}

} // namespace
