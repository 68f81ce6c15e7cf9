/**
 * @file
 * SetAssocTable against a reference kept here: the early-exit way
 * loops over array-of-struct entries that the caches, the BTB, EIP and
 * the MAT each ran before they shared the table. Seeded random
 * sequences of lookup, insert, invalidate and invalidateAll, over one
 * set, a non-power-of-two set count, 16 ways and tenant way ranges,
 * must choose the same way, evict the same entry and serialize to the
 * same bytes after every operation (the reference writes the table's
 * encoding from its own entries).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/serialize.hh"
#include "util/set_assoc_table.hh"

namespace hp
{
namespace
{

using Table = SetAssocTable<std::uint64_t>;

/** The early-exit loops, over array-of-struct entries. */
class Reference
{
  public:
    Reference(unsigned sets, unsigned ways)
        : ways_(ways), entries_(std::size_t(sets) * ways)
    {
    }

    /** First way in [lo, hi) holding @p key (refreshed), or nullopt. */
    std::optional<unsigned>
    lookup(unsigned set, std::uint64_t key, unsigned lo, unsigned hi)
    {
        Entry *base = &entries_[std::size_t(set) * ways_];
        for (unsigned w = lo; w < hi; ++w) {
            if (base[w].valid && base[w].tag == key) {
                base[w].lastUse = ++clock_;
                return w;
            }
        }
        return std::nullopt;
    }

    /** The way the insert took; @p evicted gets what it held. */
    unsigned
    insert(unsigned set, std::uint64_t key, unsigned lo, unsigned hi,
           std::optional<std::uint64_t> &evicted)
    {
        Entry *base = &entries_[std::size_t(set) * ways_];
        Entry *victim = &base[lo];
        for (unsigned w = lo; w < hi; ++w) {
            if (base[w].valid && base[w].tag == key) {
                victim = &base[w];
                break;
            }
            if (!base[w].valid) {
                victim = &base[w];
                break;
            }
            if (base[w].lastUse < victim->lastUse)
                victim = &base[w];
        }
        evicted = victim->valid ? std::optional(victim->tag) : std::nullopt;
        victim->valid = true;
        victim->tag = key;
        victim->lastUse = ++clock_;
        return unsigned(victim - base);
    }

    std::optional<unsigned>
    invalidate(unsigned set, std::uint64_t key, unsigned lo, unsigned hi)
    {
        Entry *base = &entries_[std::size_t(set) * ways_];
        for (unsigned w = lo; w < hi; ++w) {
            if (base[w].valid && base[w].tag == key) {
                base[w].valid = false;
                return w;
            }
        }
        return std::nullopt;
    }

    std::size_t
    invalidateWays(unsigned lo, unsigned hi)
    {
        std::size_t flushed = 0;
        for (std::size_t base = 0; base < entries_.size(); base += ways_) {
            for (unsigned w = lo; w < hi; ++w) {
                flushed += entries_[base + w].valid;
                entries_[base + w].valid = false;
            }
        }
        return flushed;
    }

    /** The table's encoding: the entry count, the clock, then two
     *  packed arrays: each entry's tag shifted up past its valid
     *  state in bit 0, and each entry's stamp. */
    std::vector<std::uint8_t>
    bytes()
    {
        std::vector<std::uint64_t> tags;
        std::vector<std::uint64_t> stamps;
        for (const Entry &e : entries_) {
            tags.push_back(e.tag << 1 | std::uint64_t(e.valid));
            stamps.push_back(e.lastUse);
        }
        StateWriter ar;
        ar.value(std::uint64_t(entries_.size()));
        ar.value(clock_);
        ioElements(ar, tags);
        ioElements(ar, stamps);
        return ar.take();
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };

    unsigned ways_;
    std::uint64_t clock_ = 0;
    std::vector<Entry> entries_;
};

std::vector<std::uint8_t>
bytesOf(Table &table)
{
    StateWriter ar;
    table.serializeState(ar);
    return ar.take();
}

/** The way a table slot of @p set names, or nullopt for kNone. */
std::optional<unsigned>
wayOf(const Table &table, unsigned set, std::size_t slot)
{
    if (slot == Table::kNone)
        return std::nullopt;
    return unsigned(slot - std::size_t(set) * table.ways());
}

struct Geometry
{
    const char *name;
    unsigned sets;
    unsigned ways;
    /** Tenant way ranges (0 = every op spans all ways). */
    unsigned tenants;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.name;
}

class SetAssocTableDiffTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(SetAssocTableDiffTest, MatchesEarlyExitLoops)
{
    const Geometry g = GetParam();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Table table(g.sets, g.ways);
        Reference ref(g.sets, g.ways);
        Rng rng(seed);
        // Few distinct keys per set, so hits, refills, holes before a
        // resident copy and LRU evictions all occur.
        const std::uint64_t keys = 2ull * g.sets * g.ways;
        for (unsigned op = 0; op < 4000; ++op) {
            const std::uint64_t key = 0x400000 + rng.nextUint(keys);
            const unsigned set = unsigned(key % g.sets);
            unsigned lo = 0, hi = g.ways;
            if (g.tenants > 0) {
                const unsigned t = unsigned(rng.nextUint(g.tenants));
                lo = t * g.ways / g.tenants;
                hi = (t + 1) * g.ways / g.tenants;
            }
            const std::uint64_t kind = rng.nextUint(100);
            SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                         std::to_string(op));
            if (kind < 45) {
                const std::size_t slot = table.find(set, key, lo, hi);
                if (slot != Table::kNone)
                    table.touch(slot);
                ASSERT_EQ(wayOf(table, set, slot),
                          ref.lookup(set, key, lo, hi));
            } else if (kind < 85) {
                std::optional<std::uint64_t> ref_evicted;
                const unsigned ref_way =
                    ref.insert(set, key, lo, hi, ref_evicted);
                const std::size_t slot = table.victim(set, key, lo, hi);
                const std::optional<std::uint64_t> evicted =
                    table.valid(slot) ? std::optional(table.key(slot))
                                      : std::nullopt;
                table.fill(slot, key);
                ASSERT_EQ(wayOf(table, set, slot), ref_way);
                ASSERT_EQ(evicted, ref_evicted);
            } else if (kind < 99) {
                const std::size_t slot = table.find(set, key, lo, hi);
                if (slot != Table::kNone)
                    table.invalidate(slot);
                ASSERT_EQ(wayOf(table, set, slot),
                          ref.invalidate(set, key, lo, hi));
            } else {
                ASSERT_EQ(table.invalidateWays(lo, hi),
                          ref.invalidateWays(lo, hi));
            }
            ASSERT_EQ(bytesOf(table), ref.bytes());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocTableDiffTest,
    ::testing::Values(Geometry{"OneSet", 1, 8, 0},
                      Geometry{"FiveSets", 5, 4, 0},
                      Geometry{"SixteenWays", 3, 16, 0},
                      Geometry{"TenantRanges", 4, 8, 3}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::string(info.param.name);
    });

TEST(SetAssocTableTest, EarlierHoleWinsOverResidentCopy)
{
    // Ways 0-2 hold A, B, C. Invalidating A leaves a hole before C,
    // and inserting C again fills the hole: the set then holds C
    // twice, and lookup finds the new copy in way 0. The MAT keeps
    // this behaviour, so its simulated outputs stay the same.
    Table table(1, 4);
    Reference ref(1, 4);
    std::optional<std::uint64_t> evicted;
    for (std::uint64_t key : {0xa, 0xb, 0xc}) {
        table.fill(table.victim(0, key), key);
        ref.insert(0, key, 0, 4, evicted);
    }
    table.invalidate(table.find(0, 0xa));
    ref.invalidate(0, 0xa, 0, 4);

    EXPECT_EQ(table.victim(0, 0xc), 0u);
    table.fill(table.victim(0, 0xc), 0xc);
    EXPECT_EQ(ref.insert(0, 0xc, 0, 4, evicted), 0u);
    EXPECT_EQ(table.occupancy(), 3u);
    EXPECT_EQ(table.find(0, 0xc), 0u);
    EXPECT_EQ(ref.lookup(0, 0xc, 0, 4), 0u);
    table.touch(table.find(0, 0xc));
    EXPECT_EQ(bytesOf(table), ref.bytes());
}

TEST(SetAssocTableTest, SetOfIsTheModulo)
{
    // A mask for power-of-two set counts, a modulo for the others.
    Rng rng(9);
    for (unsigned sets : {1u, 5u, 64u, 1228u}) {
        Table table(sets, 2);
        for (unsigned i = 0; i < 1000; ++i) {
            const std::uint64_t hash = rng.next();
            ASSERT_EQ(table.setOf(hash), hash % sets);
        }
    }
}

TEST(SetAssocTableTest, StaleKeysRoundTrip)
{
    Table table(2, 4);
    for (std::uint64_t key = 0; key < 6; ++key)
        table.fill(table.victim(unsigned(key % 2), key), key);
    table.invalidate(table.find(1, 3));
    table.invalidateWays(0, 1);
    const std::vector<std::uint8_t> bytes = bytesOf(table);

    Table copy(2, 4);
    StateLoader loader(bytes.data(), bytes.size());
    EXPECT_TRUE(copy.serializeState(loader));
    EXPECT_FALSE(loader.failed());
    EXPECT_EQ(bytesOf(copy), bytes);
    EXPECT_EQ(copy.key(table.find(0, 2)), 2u);
    EXPECT_FALSE(copy.valid(0)); // way 0 of set 0: stale key 0
}

TEST(SetAssocTableTest, RestoreRejectsAnotherSlotCount)
{
    // The guard is the slot count, the one geometry field the encoding
    // records.
    Table table(2, 4);
    table.fill(table.victim(0, 8), 8);
    const std::vector<std::uint8_t> bytes = bytesOf(table);
    Table other(4, 4);
    StateLoader loader(bytes.data(), bytes.size());
    EXPECT_FALSE(other.serializeState(loader));
    EXPECT_TRUE(loader.failed());
}

} // namespace
} // namespace hp
