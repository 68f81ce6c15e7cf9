/**
 * @file
 * Canonical byte-stream archives for checkpointing simulator state.
 *
 * A component exposes one `template <class Ar> void serializeState(Ar&)`
 * that lists its mutable fields; the same body runs against a
 * StateWriter (capture) and a StateLoader (restore), so the two can
 * never drift apart. The encoding is canonical and padding-free:
 * scalars are written field by field (never whole-struct memcpy, whose
 * padding bytes would break byte-identical round-trips), hashed tables
 * (FlatMap / FlatSet) are emitted sorted by key, and sequences
 * (vectors, RingBuffer FIFOs) in order. The result is that capturing
 * the same microarchitectural state always yields the same bytes — the
 * property the golden checkpoint test pins down.
 *
 * Integers are written compactly, since most of what a blob holds
 * (tags, stamps, counts, indices) is small:
 *  - a 4- or 8-byte integer scalar is a LEB128 varint (7 bits per
 *    byte, low group first, the top bit set on every byte but the
 *    last), zigzagged first when signed so small negatives stay short;
 *  - an unsigned integer array (a vector after its count, or a
 *    fixed-size one through ioElements) is packed: one width byte w,
 *    the bytes its largest element needs, then each element's low w
 *    bytes, which the loader reads back with whole-word loads;
 *  - bools, 1- and 2-byte scalars, doubles and raw bytes keep their
 *    fixed little-endian width.
 */

#ifndef HP_UTIL_SERIALIZE_HH
#define HP_UTIL_SERIALIZE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/flat_map.hh"
#include "util/ring_buffer.hh"
#include "util/types.hh"

namespace hp
{

// On a little-endian host a fixed-width scalar's in-memory bytes are
// its encoding, and a packed element's low bytes come first, so both
// archives move them with plain copies.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint encoding assumes a little-endian host");

/** The most bytes a varint of 64 bits takes (ceil(64 / 7)). */
constexpr unsigned kMaxVarintBytes = 10;

/** A signed integer's varint bits: 0, -1, 1, -2, ... map to 0, 1, 2,
 *  3, ..., so a small magnitude of either sign encodes short. */
template <typename T>
constexpr std::uint64_t
zigzag(T v)
{
    if constexpr (std::is_signed_v<T>) {
        const std::int64_t s = v;
        return (std::uint64_t(s) << 1) ^ std::uint64_t(s >> 63);
    } else {
        return v;
    }
}

/** The inverse of zigzag(). */
template <typename T>
constexpr T
unzigzag(std::uint64_t u)
{
    if constexpr (std::is_signed_v<T>)
        return T(std::int64_t(u >> 1) ^ -std::int64_t(u & 1));
    else
        return T(u);
}

/** The identity map: a packed array's elements as stored. */
struct AsStored
{
    template <typename T>
    T
    operator()(T v) const
    {
        return v;
    }
};

/** Serializes state into a growing canonical byte buffer. */
class StateWriter
{
  public:
    static constexpr bool loading = false;

    template <typename T>
    void
    value(const T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "value() takes scalars only; add an io() overload");
        if constexpr (std::is_same_v<T, bool>) {
            put(std::uint8_t(v ? 1 : 0));
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == 8, "only double is supported");
            put(v);
        } else if constexpr (std::is_enum_v<T>) {
            value(static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (sizeof(T) < 4) {
            put(v);
        } else {
            putVarint(zigzag(v));
        }
    }

    void
    bytes(const void *data, std::size_t n)
    {
        if (n > 0)
            std::memcpy(grow(n), data, n);
    }

    /**
     * Writes @p n unsigned integers packed: one width byte w, the
     * bytes the largest of them needs (at least 1), then each one's
     * low w bytes. @p enc maps an element to the integer written.
     */
    template <typename T, typename Enc>
    void
    packed(const T *data, std::size_t n, Enc enc)
    {
        T all = 0;
        for (std::size_t i = 0; i < n; ++i)
            all |= enc(data[i]);
        const std::size_t w =
            std::max<std::size_t>(1, (std::bit_width(all) + 7) / 8);
        // Each element goes in with one 8-byte store; the last one
        // spills up to 7 bytes into the slack past the array.
        std::uint8_t *at = room(1 + n * w + 7);
        at[0] = std::uint8_t(w);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t x = enc(data[i]);
            std::memcpy(at + 1 + i * w, &x, sizeof(x));
        }
        size_ += 1 + n * w;
    }

    /** The bytes written so far; the writer is left empty. */
    std::vector<std::uint8_t>
    take()
    {
        std::vector<std::uint8_t> out(buf_.get(), buf_.get() + size_);
        size_ = 0;
        return out;
    }

  private:
    template <typename T>
    void
    put(T v)
    {
        std::memcpy(grow(sizeof(T)), &v, sizeof(T));
    }

    void
    putVarint(std::uint64_t v)
    {
        std::uint8_t *at = room(kMaxVarintBytes);
        std::size_t n = 0;
        for (; v >= 0x80; v >>= 7)
            at[n++] = std::uint8_t(v | 0x80);
        at[n++] = std::uint8_t(v);
        size_ += n;
    }

    /** Room for @p n more bytes at the end, not yet claimed; capacity
     *  at least doubles when it runs out, so a blob costs O(1)
     *  amortized copies per byte. */
    std::uint8_t *
    room(std::size_t n)
    {
        if (cap_ - size_ < n) {
            cap_ = std::max<std::size_t>(2 * cap_, size_ + n + 4096);
            auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(cap_);
            if (size_ > 0)
                std::memcpy(bigger.get(), buf_.get(), size_);
            buf_ = std::move(bigger);
        }
        return buf_.get() + size_;
    }

    /** Claims @p n bytes at the end. */
    std::uint8_t *
    grow(std::size_t n)
    {
        std::uint8_t *at = room(n);
        size_ += n;
        return at;
    }

    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/**
 * Restores state from a byte buffer produced by StateWriter.
 *
 * A truncated stream is reported through fail() rather than read out
 * of bounds; the caller (Checkpoint::restoreInto) turns a failed load
 * into a hard error with context. Reads past the end return zeros.
 */
class StateLoader
{
  public:
    static constexpr bool loading = true;

    StateLoader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    template <typename T>
    void
    value(T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "value() takes scalars only; add an io() overload");
        if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t b = 0;
            bytes(&b, 1);
            v = b != 0;
        } else if constexpr (std::is_floating_point_v<T>) {
            static_assert(sizeof(T) == 8, "only double is supported");
            const std::uint64_t bits = readUint(8);
            std::memcpy(&v, &bits, sizeof(v));
        } else if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> u{};
            value(u);
            v = static_cast<T>(u);
        } else if constexpr (sizeof(T) < 4) {
            v = static_cast<T>(readUint(sizeof(T)));
        } else {
            v = unzigzag<T>(readVarint(sizeof(T)));
        }
    }

    /**
     * Reads @p n packed unsigned integers (see StateWriter::packed)
     * into @p data, each mapped through @p dec. A width of 0 or above
     * the element size, or an array longer than the stream, fails it.
     */
    template <typename T, typename Dec>
    void
    packed(T *data, std::size_t n, Dec dec)
    {
        std::uint8_t w = 0;
        bytes(&w, 1);
        if (failed_)
            return;
        if (w == 0 || w > sizeof(T)) {
            markFailed("a packed array's width is 0 or above its "
                       "element size");
            return;
        }
        const std::size_t left = size_ - pos_;
        if (n > left / w) {
            markFailed("a packed array runs past the end of the stream");
            return;
        }
        // One 8-byte load and a mask per element, while the load stays
        // inside the stream; the last few copy their w bytes alone.
        const std::uint8_t *src = data_ + pos_;
        const std::uint64_t mask = ~std::uint64_t(0) >> (64 - 8 * w);
        const std::size_t whole =
            left >= 8 ? std::min(n, (left - 8) / w + 1) : 0;
        for (std::size_t i = 0; i < whole; ++i) {
            std::uint64_t x;
            std::memcpy(&x, src + i * w, sizeof(x));
            data[i] = dec(T(x & mask));
        }
        for (std::size_t i = whole; i < n; ++i) {
            std::uint64_t x = 0;
            std::memcpy(&x, src + i * w, w);
            data[i] = dec(T(x));
        }
        pos_ += n * w;
    }

    void
    bytes(void *out, std::size_t n)
    {
        if (n == 0)
            return; // an empty container's data() may be null
        if (size_ - pos_ < n) {
            failed_ = true;
            std::memset(out, 0, n);
            pos_ = size_;
            return;
        }
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    std::size_t remaining() const { return size_ - pos_; }

    /** True once any read ran past the end of the stream. */
    bool failed() const { return failed_; }

    /** Marks the stream bad (shape mismatch); stops further reads. */
    void
    markFailed()
    {
        failed_ = true;
        pos_ = size_;
    }

    /** markFailed with a diagnostic; the first failure's one sticks. */
    void
    markFailed(const char *why)
    {
        if (!failed_)
            reason_ = why;
        markFailed();
    }

    /** Why a restore rejected the stream's state, or nullptr. */
    const char *failReason() const { return reason_; }

  private:
    std::uint64_t
    readUint(unsigned width)
    {
        std::uint64_t v = 0;
        bytes(&v, width);
        return v;
    }

    /** A varint whose value must fit in @p width bytes. */
    std::uint64_t
    readVarint(unsigned width)
    {
        const std::uint8_t *at = data_ + pos_;
        const std::uint8_t *const end = data_ + size_;
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            if (at == end) {
                markFailed();
                return 0;
            }
            const std::uint8_t b = *at++;
            // The 10th byte holds bit 63 alone.
            if (shift == 63 && b > 1) {
                markFailed(b & 0x80 ? "a varint is longer than 10 bytes"
                                    : "a varint has bits past 64");
                return 0;
            }
            v |= std::uint64_t(b & 0x7f) << shift;
            if (b < 0x80)
                break;
        }
        pos_ = std::size_t(at - data_);
        if (width < 8 && (v >> (8 * width)) != 0) {
            markFailed("an integer does not fit its field");
            return 0;
        }
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    const char *reason_ = nullptr;
};

/**
 * Geometry guard for containers whose size is fixed by configuration
 * (cache line arrays, BTB ways, MSHR files, ...): records the size on
 * capture and, on restore, fails the stream when it does not match the
 * constructed container — a blob captured under a different geometry
 * must be rejected, never silently reshape the component.
 * @param why The failure reason a mismatch reports.
 * @return false when the load must stop (shape mismatch).
 */
template <class Ar, typename C>
bool
checkShape(Ar &ar, const C &c,
           const char *why = "a table's size differs from its "
                             "configured geometry")
{
    std::uint64_t n = c.size();
    ar.value(n);
    if constexpr (Ar::loading) {
        if (n != c.size()) {
            ar.markFailed(why);
            return false;
        }
    }
    return true;
}

/**
 * On restore, fails the stream with @p why unless @p block is a cache
 * block's address: the caches panic on an unaligned fill, so a block
 * address a component may issue or fill must be checked where it is
 * read.
 */
template <class Ar>
void
checkBlock(Ar &ar, Addr block, const char *why)
{
    if constexpr (Ar::loading) {
        if (block != blockAlign(block))
            ar.markFailed(why);
    }
}

/**
 * Writes a container's element count @p n, or reads one. Every
 * element encodes to at least one byte, so a count read above the
 * bytes left is corrupt: it fails the stream and reads as zero, and a
 * restore never sizes a container from it.
 */
template <class Ar>
std::uint64_t
ioCount(Ar &ar, std::uint64_t n)
{
    ar.value(n);
    if constexpr (Ar::loading) {
        if (n > ar.remaining()) {
            ar.markFailed();
            return 0;
        }
    }
    return n;
}

/** Scalars go through value(); anything else must serializeState. */
template <class Ar, typename T>
void
io(Ar &ar, T &v)
{
    if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>)
        ar.value(v);
    else
        v.serializeState(ar);
}

template <class Ar>
void
io(Ar &ar, std::string &s)
{
    s.resize(ioCount(ar, s.size()));
    if (!s.empty())
        ar.bytes(s.data(), s.size());
}

/**
 * The elements of @p v with no count: its size is fixed by
 * configuration, and the caller guards it (checkShape). Unsigned
 * integers are packed (StateWriter::packed), each written as
 * @p enc(e) and restored as @p dec of what was written; other
 * elements go one by one.
 */
template <class Ar, typename T, typename Enc = AsStored,
          typename Dec = AsStored>
void
ioElements(Ar &ar, std::vector<T> &v, Enc enc = {}, Dec dec = {})
{
    if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
        if constexpr (Ar::loading)
            ar.packed(v.data(), v.size(), dec);
        else
            ar.packed(v.data(), v.size(), enc);
    } else {
        for (T &e : v)
            io(ar, e);
    }
}

/** A vector: its count, then its elements as ioElements writes them. */
template <class Ar, typename T>
void
io(Ar &ar, std::vector<T> &v)
{
    const std::uint64_t n = ioCount(ar, v.size());
    if constexpr (Ar::loading) {
        v.clear();
        v.resize(n);
    }
    ioElements(ar, v);
}

template <class Ar, typename T, std::size_t N>
void
io(Ar &ar, std::array<T, N> &a)
{
    for (auto &e : a)
        io(ar, e);
}

template <class Ar, typename A, typename B>
void
io(Ar &ar, std::pair<A, B> &p)
{
    io(ar, p.first);
    io(ar, p.second);
}

/**
 * Flat maps and sets encode canonically: the count, then the keys in
 * increasing order, each followed by its value (maps only). The
 * writer sorts the keys and writes each value where it lies; the
 * loader rejects keys that are not strictly increasing, so a stream
 * is accepted only in the order the writer emits.
 */
template <class Ar, typename K, typename V>
void
io(Ar &ar, FlatMap<K, V> &m)
{
    constexpr bool kHasValue = !std::is_same_v<V, FlatNoValue>;
    const std::uint64_t n = ioCount(ar, m.size());
    if constexpr (Ar::loading) {
        m.clear();
        m.reserve(n);
        K prev{};
        for (std::uint64_t i = 0; i < n; ++i) {
            K k{};
            io(ar, k);
            if (i > 0 && k <= prev) {
                ar.markFailed("a hashed table's keys are not in "
                              "increasing order");
                return;
            }
            prev = k;
            V &v = *m.insert(k).first;
            if constexpr (kHasValue)
                io(ar, v);
        }
    } else {
        std::vector<K> keys;
        keys.reserve(m.size());
        m.forEach([&keys](K k, const V &) { keys.push_back(k); });
        std::sort(keys.begin(), keys.end());
        for (K k : keys) {
            io(ar, k);
            if constexpr (kHasValue)
                io(ar, *m.find(k));
        }
    }
}

/** Ring buffers serialize their logical contents front-to-back; the
 *  head position and capacity are representation, not state. */
template <class Ar, typename T>
void
io(Ar &ar, RingBuffer<T> &rb)
{
    const std::uint64_t n = ioCount(ar, rb.size());
    if constexpr (Ar::loading) {
        rb.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            io(ar, rb.emplace_back());
    } else {
        for (std::uint64_t i = 0; i < n; ++i)
            io(ar, rb[i]);
    }
}

} // namespace hp

#endif // HP_UTIL_SERIALIZE_HH
