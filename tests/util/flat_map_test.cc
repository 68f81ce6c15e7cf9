/**
 * @file
 * FlatMap / FlatSet against reference models: long random sequences
 * of insert / find / erase / clear must leave the same contents as a
 * std::unordered_map, including backward-shift erases whose probe
 * runs wrap past the end of the slot array; and the StateWriter
 * encoding must be the canonical stream written here from a std::map
 * / std::set of the same contents: the count, then the keys in
 * increasing order (each with its value), whatever the insertion
 * history. The loader accepts keys only in that order.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/flat_map.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "util/serialize.hh"

namespace hp
{
namespace
{

using Map = FlatMap<std::uint64_t, std::uint64_t>;
using Ref = std::unordered_map<std::uint64_t, std::uint64_t>;

void
expectSameContents(const Map &map, const Ref &ref)
{
    ASSERT_EQ(map.size(), ref.size());
    ASSERT_EQ(map.empty(), ref.empty());
    std::size_t visited = 0;
    map.forEach([&](std::uint64_t key, std::uint64_t value) {
        ++visited;
        auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << "extra key " << key;
        EXPECT_EQ(value, it->second) << "key " << key;
    });
    EXPECT_EQ(visited, ref.size());
    for (const auto &[key, value] : ref) {
        const std::uint64_t *found = map.find(key);
        ASSERT_NE(found, nullptr) << "lost key " << key;
        EXPECT_EQ(*found, value);
    }
}

/** Keys whose home slot lies in the last eighth of any table of up
 *  to 128 slots, so probe runs pile up at the end and wrap. */
std::vector<std::uint64_t>
tailKeys(std::size_t count)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < count; ++k) {
        if ((mix64(k) & 127) >= 120)
            keys.push_back(k);
    }
    return keys;
}

enum class KeyPool
{
    Random,   ///< Draws from a 96-key pool of random values.
    TailHeavy ///< Draws from tailKeys(): wrap-around probe runs.
};

class FlatMapModelTest
    : public ::testing::TestWithParam<std::pair<KeyPool, std::uint64_t>>
{
};

TEST_P(FlatMapModelTest, MatchesUnorderedMapUnderRandomOps)
{
    const auto [pool_kind, seed] = GetParam();
    Rng rng(seed);
    std::vector<std::uint64_t> pool;
    if (pool_kind == KeyPool::TailHeavy) {
        pool = tailKeys(40);
    } else {
        for (int i = 0; i < 96; ++i)
            pool.push_back(rng.next());
    }

    Map map;
    Ref ref;
    for (int op = 0; op < 30'000; ++op) {
        const std::uint64_t key = pool[rng.nextUint(pool.size())];
        const std::uint64_t roll = rng.nextUint(1000);
        if (roll < 450) {
            const std::uint64_t value = rng.next();
            auto [slot, inserted] = map.insert(key);
            EXPECT_EQ(inserted, ref.count(key) == 0);
            *slot = value;
            ref[key] = value;
        } else if (roll < 900) {
            EXPECT_EQ(map.erase(key), ref.erase(key) == 1);
        } else if (roll < 998) {
            const std::uint64_t *found = map.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end());
            if (found) {
                EXPECT_EQ(*found, it->second);
            }
            EXPECT_EQ(map.contains(key), found != nullptr);
        } else {
            map.clear();
            ref.clear();
        }
        ASSERT_EQ(map.size(), ref.size()) << "op " << op;
        if (op % 97 == 0)
            expectSameContents(map, ref);
    }
    expectSameContents(map, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FlatMapModelTest,
    ::testing::Values(std::make_pair(KeyPool::Random, 1ull),
                      std::make_pair(KeyPool::Random, 0xfeedull),
                      std::make_pair(KeyPool::TailHeavy, 7ull),
                      std::make_pair(KeyPool::TailHeavy, 0xbeefull)));

TEST(FlatMapTest, EraseChainWrapsPastTableEnd)
{
    // Three keys homed at the last slot fill it and wrap into slots 0
    // and 1; a key homed at slot 0 lands in slot 2. Erasing the first
    // must shift each survivor back toward its home, across the wrap.
    Map map;
    map[0] = 0; // allocate the table
    map.erase(0);
    const std::size_t cap = map.capacity();
    ASSERT_GE(cap, 8u);
    std::vector<std::uint64_t> last, first;
    for (std::uint64_t k = 1; last.size() < 3 || first.size() < 1; ++k) {
        const std::size_t home = mix64(k) & (cap - 1);
        if (home == cap - 1 && last.size() < 3)
            last.push_back(k);
        else if (home == 0 && first.empty())
            first.push_back(k);
    }
    Ref ref;
    for (std::uint64_t k : {last[0], last[1], last[2], first[0]}) {
        map[k] = k * 3;
        ref[k] = k * 3;
    }
    ASSERT_EQ(map.capacity(), cap);
    for (std::uint64_t k : {last[0], last[1], first[0], last[2]}) {
        EXPECT_TRUE(map.erase(k));
        ref.erase(k);
        EXPECT_FALSE(map.erase(k));
        expectSameContents(map, ref);
    }
    EXPECT_TRUE(map.empty());
}

TEST(FlatMapTest, ClearKeepsCapacityAndEmpties)
{
    Map map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map[k] = k;
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_EQ(map.find(5), nullptr);
    map[5] = 9;
    EXPECT_EQ(*map.find(5), 9u);
    EXPECT_EQ(map.size(), 1u);
}

template <typename T>
std::vector<std::uint8_t>
encode(T &container)
{
    StateWriter writer;
    io(writer, container);
    return writer.take();
}

/** The canonical stream of @p ref: the count, then each key in
 *  increasing order followed by its value. */
std::vector<std::uint8_t>
canonical(const std::map<std::uint64_t, std::uint64_t> &ref)
{
    StateWriter writer;
    writer.value(std::uint64_t(ref.size()));
    for (const auto &[key, value] : ref) {
        writer.value(key);
        writer.value(value);
    }
    return writer.take();
}

TEST(FlatMapTest, EncodesLikeSortedMap)
{
    Rng rng(42);
    Map map;
    std::map<std::uint64_t, std::uint64_t> ref;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t key = rng.nextUint(2000);
        if (rng.nextBool(0.3)) {
            map.erase(key);
            ref.erase(key);
        } else {
            map[key] = i;
            ref[key] = i;
        }
    }
    const std::vector<std::uint8_t> bytes = encode(map);
    EXPECT_EQ(bytes, canonical(ref));

    // The stream restores to equal contents.
    Map back;
    back[12345] = 1; // a restore replaces existing contents
    StateLoader loader(bytes.data(), bytes.size());
    io(loader, back);
    EXPECT_FALSE(loader.failed());
    EXPECT_EQ(loader.remaining(), 0u);
    expectSameContents(back, Ref(ref.begin(), ref.end()));
    EXPECT_EQ(encode(back), bytes);
}

TEST(FlatMapTest, SetEncodesLikeSortedSet)
{
    FlatSet<std::uint64_t> set;
    std::set<std::uint64_t> ref;
    for (std::uint64_t k : {90ull, 3ull, 77ull, 3ull, 1ull << 40, 0ull}) {
        EXPECT_EQ(set.insert(k).second, ref.insert(k).second);
    }
    StateWriter canonical;
    canonical.value(std::uint64_t(ref.size()));
    for (std::uint64_t k : ref)
        canonical.value(k);
    const std::vector<std::uint8_t> bytes = encode(set);
    EXPECT_EQ(bytes, canonical.take());

    FlatSet<std::uint64_t> back;
    StateLoader loader(bytes.data(), bytes.size());
    io(loader, back);
    EXPECT_FALSE(loader.failed());
    EXPECT_EQ(back.size(), ref.size());
    for (std::uint64_t k : ref)
        EXPECT_TRUE(back.contains(k));
}

TEST(FlatMapTest, LoaderRejectsKeysOutOfOrder)
{
    // The writer emits each key once, in increasing order; a stream
    // with a key out of order or repeated is not one it wrote.
    using Keys = std::vector<std::uint64_t>;
    for (const Keys &keys : {Keys{5, 3}, Keys{4, 4}}) {
        StateWriter writer;
        writer.value(std::uint64_t(keys.size()));
        for (std::uint64_t k : keys) {
            writer.value(k);
            writer.value(k * 10);
        }
        const std::vector<std::uint8_t> bytes = writer.take();
        Map map;
        StateLoader loader(bytes.data(), bytes.size());
        io(loader, map);
        EXPECT_TRUE(loader.failed()) << keys[0] << ", " << keys[1];
        EXPECT_STREQ(loader.failReason(),
                     "a hashed table's keys are not in increasing order");
    }
}

TEST(FlatMapTest, TruncatedBlobStopsLoading)
{
    // A corrupt count larger than the stream must end at the stream's
    // end, not insert billions of zero keys.
    StateWriter writer;
    writer.value(std::uint64_t(1) << 40);
    writer.value(std::uint64_t(7));
    writer.value(std::uint64_t(8));
    const std::vector<std::uint8_t> bytes = writer.take();
    Map map;
    StateLoader loader(bytes.data(), bytes.size());
    io(loader, map);
    EXPECT_TRUE(loader.failed());
    EXPECT_LE(map.size(), 2u);
}

} // namespace
} // namespace hp
