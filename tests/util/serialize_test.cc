/**
 * @file
 * Unit tests for the canonical state-serialization layer: scalar
 * encodings, container adapters, the sorted canonical form of hashed
 * tables, and loader failure behavior on truncation.
 */

#include <gtest/gtest.h>

#include "util/serialize.hh"

namespace hp
{
namespace
{

template <typename T>
std::vector<std::uint8_t>
writeOne(const T &v)
{
    StateWriter writer;
    io(writer, const_cast<T &>(v));
    return writer.take();
}

template <typename T>
T
readOne(const std::vector<std::uint8_t> &bytes)
{
    T v{};
    StateLoader loader(bytes.data(), bytes.size());
    io(loader, v);
    EXPECT_FALSE(loader.failed());
    EXPECT_EQ(loader.remaining(), 0u);
    return v;
}

template <typename T>
void
expectRoundTrip(const T &v)
{
    EXPECT_EQ(readOne<T>(writeOne(v)), v);
}

TEST(SerializeTest, ScalarEncodingsAreFixedWidthLittleEndian)
{
    EXPECT_EQ(writeOne(std::uint64_t(0x0102030405060708ULL)),
              (std::vector<std::uint8_t>{8, 7, 6, 5, 4, 3, 2, 1}));
    EXPECT_EQ(writeOne(std::uint32_t(0xaabbccdd)),
              (std::vector<std::uint8_t>{0xdd, 0xcc, 0xbb, 0xaa}));
    EXPECT_EQ(writeOne(true), std::vector<std::uint8_t>{1});
    EXPECT_EQ(writeOne(false), std::vector<std::uint8_t>{0});
    EXPECT_EQ(writeOne(std::uint8_t(0x7f)), std::vector<std::uint8_t>{0x7f});
}

TEST(SerializeTest, ScalarsRoundTrip)
{
    expectRoundTrip(std::uint64_t(~0ULL));
    expectRoundTrip(std::int64_t(-1234567890123));
    expectRoundTrip(std::uint16_t(0xbeef));
    expectRoundTrip(-0.0);
    expectRoundTrip(3.141592653589793);
    enum class Color : std::uint8_t { Red, Green, Blue };
    expectRoundTrip(Color::Blue);
}

TEST(SerializeTest, ContainersRoundTrip)
{
    expectRoundTrip(std::string("hello\0world", 11));
    expectRoundTrip(std::vector<std::uint64_t>{1, 2, 3});
    expectRoundTrip(std::vector<std::uint64_t>{});
    expectRoundTrip(std::array<std::uint16_t, 3>{{1, 2, 3}});
    expectRoundTrip(std::pair<std::uint32_t, bool>{7, true});
}

TEST(SerializeTest, UnorderedContainersEncodeCanonically)
{
    // Same logical contents inserted in different orders must produce
    // identical bytes — the blob is key-sorted, not slot-ordered.
    FlatMap<std::uint64_t, std::uint32_t> a, b;
    for (std::uint64_t k = 0; k < 50; ++k)
        a[k] = std::uint32_t(k * 3);
    for (std::uint64_t k = 50; k-- > 0;)
        b[k] = std::uint32_t(k * 3);
    EXPECT_EQ(writeOne(a), writeOne(b));
}

TEST(SerializeTest, LoaderFailsCleanlyOnTruncation)
{
    const std::vector<std::uint8_t> bytes =
        writeOne(std::vector<std::uint64_t>{1, 2, 3});
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        StateLoader loader(bytes.data(), n);
        std::vector<std::uint64_t> v;
        io(loader, v);
        EXPECT_TRUE(loader.failed()) << "prefix " << n;
    }
}

struct Inner
{
    std::uint32_t x = 0;
    bool flag = false;
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        ar.value(x);
        ar.value(flag);
    }
};

TEST(SerializeTest, NestedStateObjectsCompose)
{
    std::vector<Inner> v{{1, true}, {2, false}};
    StateWriter writer;
    io(writer, v);
    const std::vector<std::uint8_t> bytes = writer.take();
    std::vector<Inner> back;
    StateLoader loader(bytes.data(), bytes.size());
    io(loader, back);
    ASSERT_FALSE(loader.failed());
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].x, 1u);
    EXPECT_TRUE(back[0].flag);
    EXPECT_EQ(back[1].x, 2u);
    EXPECT_FALSE(back[1].flag);
}

} // namespace
} // namespace hp
