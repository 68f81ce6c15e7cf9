#include <gtest/gtest.h>

#include <cstdint>

#include "stats/registry.hh"

namespace hp
{
namespace
{

TEST(StatsRegistryTest, RegistrationAndDottedPathLookup)
{
    std::uint64_t hits = 3;
    std::uint64_t misses = 7;
    StatsRegistry reg;
    reg.add("l1i.hits", [&hits] { return hits; });
    reg.add("l1i.misses", [&misses] { return misses; });

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.has("l1i.hits"));
    EXPECT_FALSE(reg.has("l1i.evictions"));
    EXPECT_EQ(reg.value("l1i.hits"), 3u);
    EXPECT_EQ(reg.value("l1i.misses"), 7u);

    // Readers are closures over the live counters, not copies.
    hits = 10;
    EXPECT_EQ(reg.value("l1i.hits"), 10u);

    const std::vector<std::string> paths = reg.paths();
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], "l1i.hits");
    EXPECT_EQ(paths[1], "l1i.misses");
}

TEST(StatsRegistryTest, DuplicatePathIsFatal)
{
    StatsRegistry reg;
    reg.add("a.b", [] { return std::uint64_t(0); });
    EXPECT_DEATH(reg.add("a.b", [] { return std::uint64_t(0); }),
                 "duplicate");
}

TEST(StatsRegistryTest, SnapshotDeltaEqualsManualSubtraction)
{
    std::uint64_t cycles = 100;
    std::uint64_t insts = 40;
    StatsRegistry reg;
    reg.add("sim.cycles", [&cycles] { return cycles; });
    reg.add("sim.instructions", [&insts] { return insts; });

    const StatsSnapshot warmup = reg.snapshot();
    const std::uint64_t cycles_at_warmup = cycles;
    const std::uint64_t insts_at_warmup = insts;

    cycles = 1234;
    insts = 517;

    const StatsSnapshot delta =
        StatsSnapshot::delta(reg.snapshot(), warmup);
    EXPECT_EQ(delta.value("sim.cycles"), cycles - cycles_at_warmup);
    EXPECT_EQ(delta.value("sim.instructions"),
              insts - insts_at_warmup);
    // The warmup snapshot froze the registration-time values.
    EXPECT_EQ(warmup.value("sim.cycles"), 100u);
    EXPECT_EQ(warmup.value("sim.instructions"), 40u);
}

TEST(StatsRegistryTest, DeltaOfMismatchedSnapshotsIsFatal)
{
    StatsRegistry a;
    a.add("x", [] { return std::uint64_t(1); });
    StatsRegistry b;
    b.add("y", [] { return std::uint64_t(1); });
    const StatsSnapshot sa = a.snapshot();
    const StatsSnapshot sb = b.snapshot();
    EXPECT_DEATH((void)StatsSnapshot::delta(sa, sb), "mismatch");
}

TEST(StatsSnapshotTest, JsonRoundTrip)
{
    StatsSnapshot snap;
    snap.add("l1i.demand_misses", 0);
    snap.add("hier.metadata_read_bytes", 123456789);
    snap.add("sim.cycles", ~std::uint64_t(0));

    const std::string json = snap.toJson();
    const StatsSnapshot parsed = StatsSnapshot::fromJson(json);

    ASSERT_EQ(parsed.size(), snap.size());
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(parsed.entries()[i].first, snap.entries()[i].first);
        EXPECT_EQ(parsed.entries()[i].second,
                  snap.entries()[i].second);
    }
    // And the round-trip is a fixed point textually, too.
    EXPECT_EQ(parsed.toJson(), json);
}

TEST(StatsSnapshotTest, EmptyJsonRoundTrip)
{
    const StatsSnapshot empty;
    EXPECT_EQ(empty.toJson(), "{}");
    EXPECT_EQ(StatsSnapshot::fromJson("{}").size(), 0u);
    EXPECT_EQ(StatsSnapshot::fromJson(" { } ").size(), 0u);
}

// Malformed input is rejected with a diagnostic instead of parsing
// into a wrong snapshot.

TEST(StatsSnapshotDeathTest, FromJsonRejectsValueOneAboveMax)
{
    // 2^64, one past the largest counter.
    EXPECT_DEATH((void)StatsSnapshot::fromJson(
                     "{\"a\": 18446744073709551616}"),
                 "integer at offset 6 is above the maximum");
}

TEST(StatsSnapshotDeathTest, FromJsonRejectsLongOverflow)
{
    EXPECT_DEATH((void)StatsSnapshot::fromJson(
                     "{\"a\": 99999999999999999999999}"),
                 "integer at offset 6 is above the maximum");
}

TEST(StatsSnapshotDeathTest, FromJsonRejectsTrailingText)
{
    EXPECT_DEATH((void)StatsSnapshot::fromJson("{\"a\": 1} x"),
                 "unexpected text after '\\}' at offset 9");
    EXPECT_DEATH((void)StatsSnapshot::fromJson("{} {}"),
                 "unexpected text after");
}

TEST(StatsSnapshotDeathTest, FromJsonRejectsDuplicatePath)
{
    // value() could only ever return one of the two.
    EXPECT_DEATH((void)StatsSnapshot::fromJson(
                     "{\"a\": 1, \"b\": 2, \"a\": 3}"),
                 "duplicate path 'a' at offset 17");
}

} // namespace
} // namespace hp
