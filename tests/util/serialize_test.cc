/**
 * @file
 * Unit tests for the canonical state-serialization layer: scalar
 * encodings (varints and fixed widths), packed arrays, container
 * adapters, the sorted canonical form of hashed tables, and loader
 * failure behavior on truncation and malformed integers.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>

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

using Bytes = std::vector<std::uint8_t>;

TEST(SerializeTest, ScalarEncodingsAreVarintsOrFixedWidth)
{
    // 4- and 8-byte integers: LEB128, seven bits a byte, low first.
    EXPECT_EQ(writeOne(std::uint64_t(0)), Bytes{0});
    EXPECT_EQ(writeOne(std::uint64_t(127)), Bytes{0x7f});
    EXPECT_EQ(writeOne(std::uint64_t(128)), (Bytes{0x80, 0x01}));
    EXPECT_EQ(writeOne(std::uint32_t(0xaabbccdd)),
              (Bytes{0xdd, 0x99, 0xef, 0xd5, 0x0a}));
    EXPECT_EQ(writeOne(~std::uint64_t(0)),
              (Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0xff, 0x01}));
    // Signed ones are zigzagged first: 0, -1, 1, -2 -> 0, 1, 2, 3.
    EXPECT_EQ(writeOne(std::int64_t(-1)), Bytes{1});
    EXPECT_EQ(writeOne(std::int32_t(1)), Bytes{2});
    EXPECT_EQ(writeOne(std::int32_t(-2)), Bytes{3});
    EXPECT_EQ(writeOne(std::int64_t(-65)), (Bytes{0x81, 0x01}));
    // An enum takes its underlying type's encoding.
    enum class Wide : std::uint32_t { Big = 300 };
    EXPECT_EQ(writeOne(Wide::Big), (Bytes{0xac, 0x02}));
    // Bools, 1- and 2-byte integers and doubles keep their width.
    EXPECT_EQ(writeOne(true), Bytes{1});
    EXPECT_EQ(writeOne(false), Bytes{0});
    EXPECT_EQ(writeOne(std::uint8_t(0x7f)), Bytes{0x7f});
    EXPECT_EQ(writeOne(std::uint16_t(0x0102)), (Bytes{0x02, 0x01}));
    EXPECT_EQ(writeOne(std::int16_t(-1)), (Bytes{0xff, 0xff}));
    EXPECT_EQ(writeOne(1.0),
              (Bytes{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}));
}

TEST(SerializeTest, VarintBoundariesRoundTrip)
{
    const std::uint64_t unsigned_cases[] = {
        0, 127, 128, 16383, 16384, 0xffffffffULL, 1ULL << 63,
        ~std::uint64_t(0)};
    const std::size_t lengths[] = {1, 1, 2, 2, 3, 5, 10, 10};
    for (std::size_t i = 0; i < std::size(unsigned_cases); ++i) {
        SCOPED_TRACE(unsigned_cases[i]);
        EXPECT_EQ(writeOne(unsigned_cases[i]).size(), lengths[i]);
        expectRoundTrip(unsigned_cases[i]);
    }
    expectRoundTrip(std::uint32_t(0xffffffff));
    for (std::int64_t v :
         {std::int64_t(0), std::int64_t(-1), std::int64_t(63),
          std::int64_t(-64), std::int64_t(64),
          std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max()}) {
        SCOPED_TRACE(v);
        expectRoundTrip(v);
    }
    EXPECT_EQ(writeOne(std::numeric_limits<std::int64_t>::min()).size(),
              10u);
    EXPECT_EQ(writeOne(std::numeric_limits<std::int64_t>::max()).size(),
              10u);
    expectRoundTrip(std::numeric_limits<std::int32_t>::min());
    expectRoundTrip(std::numeric_limits<std::int32_t>::max());
}

/** Why @p bytes do not load as one @p T, or "" when they do. */
template <typename T>
std::string
loadError(const Bytes &bytes)
{
    T v{};
    StateLoader loader(bytes.data(), bytes.size());
    io(loader, v);
    if (!loader.failed())
        return "";
    return loader.failReason() ? loader.failReason() : "truncated";
}

/** @p n - 1 continuation bytes 0xff, then @p last. */
Bytes
varintBytes(std::size_t n, std::uint8_t last)
{
    Bytes bytes(n, 0xff);
    bytes.back() = last;
    return bytes;
}

TEST(SerializeTest, LoaderRejectsMalformedVarints)
{
    EXPECT_EQ(loadError<std::uint64_t>(varintBytes(10, 0x01)), "");
    EXPECT_EQ(loadError<std::uint64_t>(varintBytes(11, 0x01)),
              "a varint is longer than 10 bytes");
    EXPECT_EQ(loadError<std::uint64_t>(varintBytes(10, 0x02)), // bit 64
              "a varint has bits past 64");
    EXPECT_EQ(loadError<std::uint64_t>(Bytes{0x80, 0x80}), "truncated");
    EXPECT_EQ(loadError<std::uint64_t>(Bytes{}), "truncated");
    // 2^32 does not fit a 4-byte field, signed or not.
    const Bytes two32 = writeOne(std::uint64_t(1) << 32);
    EXPECT_EQ(loadError<std::uint32_t>(two32),
              "an integer does not fit its field");
    EXPECT_EQ(loadError<std::int32_t>(two32),
              "an integer does not fit its field");
}

/** @p v packed by ioElements. */
template <typename T>
Bytes
packedBytes(std::vector<T> v)
{
    StateWriter writer;
    ioElements(writer, v);
    return writer.take();
}

/** Why @p bytes do not load as the packed elements of @p into (its
 *  size fixed), or "" when they do. */
template <typename T>
std::string
loadPacked(const Bytes &bytes, std::vector<T> &into)
{
    StateLoader loader(bytes.data(), bytes.size());
    ioElements(loader, into);
    if (!loader.failed())
        return loader.remaining() == 0 ? "" : "trailing bytes";
    return loader.failReason() ? loader.failReason() : "truncated";
}

TEST(SerializeTest, PackedArraysTakeTheirLargestElementsWidth)
{
    for (unsigned w = 1; w <= 8; ++w) {
        SCOPED_TRACE(w);
        // The largest element needs w bytes. The array ends the
        // stream, so below w = 8 its last elements take the byte-wise
        // tail, and the ones before the whole-word loads.
        const std::uint64_t top = w == 8 ? ~std::uint64_t(0)
                                         : (std::uint64_t(1) << (8 * w)) - 1;
        std::vector<std::uint64_t> v;
        for (std::uint64_t i = 0; i < 21; ++i)
            v.push_back((top / 21) * i + (i & 1));
        v.push_back(top);
        const Bytes bytes = packedBytes(v);
        ASSERT_EQ(bytes.size(), 1 + v.size() * w);
        EXPECT_EQ(bytes[0], w);
        std::vector<std::uint64_t> back(v.size(), 7);
        EXPECT_EQ(loadPacked(bytes, back), "");
        EXPECT_EQ(back, v);
    }
    // Each element's low bytes, in order.
    EXPECT_EQ(packedBytes(std::vector<std::uint32_t>{0x0102, 0x0304}),
              (Bytes{2, 0x02, 0x01, 0x04, 0x03}));
    // An empty or all-zero array still names width 1.
    EXPECT_EQ(packedBytes(std::vector<std::uint64_t>{}), Bytes{1});
    EXPECT_EQ(packedBytes(std::vector<std::uint64_t>{0, 0}),
              (Bytes{1, 0, 0}));
    std::vector<std::uint64_t> none;
    EXPECT_EQ(loadPacked(Bytes{1}, none), "");
    // 4-byte elements round-trip at their full width.
    std::vector<std::uint32_t> small(3, 0);
    EXPECT_EQ(loadPacked(packedBytes(std::vector<std::uint32_t>{
                             5, 0xffffffff, 0}),
                         small),
              "");
    EXPECT_EQ(small, (std::vector<std::uint32_t>{5, 0xffffffff, 0}));
}

TEST(SerializeTest, PackedArraysMapEachElement)
{
    // ioElements applies enc before packing and dec after loading, as
    // SetAssocTable does to rotate its valid bit down.
    std::vector<std::uint64_t> v{std::uint64_t(1) << 63 | 3, 4};
    auto enc = [](std::uint64_t x) { return std::rotl(x, 1); };
    auto dec = [](std::uint64_t x) { return std::rotr(x, 1); };
    StateWriter writer;
    ioElements(writer, v, enc, dec);
    const Bytes bytes = writer.take();
    EXPECT_EQ(bytes, (Bytes{1, 7, 8}));
    std::vector<std::uint64_t> back(2);
    StateLoader loader(bytes.data(), bytes.size());
    ioElements(loader, back, enc, dec);
    EXPECT_FALSE(loader.failed());
    EXPECT_EQ(back, v);
}

TEST(SerializeTest, LoaderRejectsMalformedPackedArrays)
{
    std::vector<std::uint64_t> three(3);
    EXPECT_EQ(loadPacked(Bytes{0, 1, 2, 3}, three),
              "a packed array's width is 0 or above its element size");
    Bytes wide(1 + 3 * 9, 0);
    wide[0] = 9;
    EXPECT_EQ(loadPacked(wide, three),
              "a packed array's width is 0 or above its element size");
    std::vector<std::uint32_t> words(2);
    EXPECT_EQ(loadPacked(Bytes{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, words),
              "a packed array's width is 0 or above its element size");
    // One byte short of n * w.
    EXPECT_EQ(loadPacked(Bytes{2, 1, 0, 2, 0, 3}, three),
              "a packed array runs past the end of the stream");
    EXPECT_EQ(loadPacked(Bytes{}, three), "truncated");
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
