/**
 * @file
 * Canonical byte-stream archives for checkpointing simulator state.
 *
 * A component exposes one `template <class Ar> void serializeState(Ar&)`
 * that lists its mutable fields; the same body runs against a
 * StateWriter (capture) and a StateLoader (restore), so the two can
 * never drift apart. The encoding is canonical and padding-free:
 * scalars are written field by field as fixed-width little-endian
 * values (never whole-struct memcpy, whose padding bytes would break
 * byte-identical round-trips), hashed tables (FlatMap / FlatSet) are
 * emitted sorted by key, and sequences (vectors, RingBuffer FIFOs) in
 * order. The result is that capturing the same microarchitectural
 * state always yields the same bytes — the property the golden
 * checkpoint test pins down.
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

namespace hp
{

// On a little-endian host a scalar's in-memory bytes are its encoding,
// so both archives move each scalar with one fixed-width copy.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint encoding assumes a little-endian host");

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
            put(static_cast<std::underlying_type_t<T>>(v));
        } else {
            put(v);
        }
    }

    void
    bytes(const void *data, std::size_t n)
    {
        if (n > 0)
            std::memcpy(grow(n), data, n);
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

    /** Claims @p n bytes at the end; capacity at least doubles when
     *  it runs out, so a blob costs O(1) amortized copies per byte. */
    std::uint8_t *
    grow(std::size_t n)
    {
        if (cap_ - size_ < n) {
            cap_ = std::max<std::size_t>(2 * cap_, size_ + n + 4096);
            auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(cap_);
            if (size_ > 0)
                std::memcpy(bigger.get(), buf_.get(), size_);
            buf_ = std::move(bigger);
        }
        std::uint8_t *at = buf_.get() + size_;
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
            using U = std::underlying_type_t<T>;
            v = static_cast<T>(static_cast<U>(readUint(sizeof(U))));
        } else {
            v = static_cast<T>(readUint(sizeof(T)));
        }
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

template <class Ar, typename T>
void
io(Ar &ar, std::vector<T> &v)
{
    const std::uint64_t n = ioCount(ar, v.size());
    if constexpr (Ar::loading) {
        v.clear();
        v.resize(n);
    }
    for (auto &e : v)
        io(ar, e);
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

/**
 * The elements of @p v with no count: its size is fixed by
 * configuration, and the caller guards it (checkShape). Arithmetic
 * elements move in one block copy, which is their value() encoding.
 */
template <class Ar, typename T>
void
ioElements(Ar &ar, std::vector<T> &v)
{
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
        ar.bytes(v.data(), v.size() * sizeof(T));
    } else {
        for (T &e : v)
            io(ar, e);
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
