/**
 * @file
 * Small integer mixing functions used for table indexing and Bundle IDs.
 *
 * All hardware tables in this library (BTB, Metadata Address Table,
 * entangling tables...) index with these mixers so that synthetic
 * address layouts do not alias pathologically.
 */

#ifndef HP_UTIL_HASH_HH
#define HP_UTIL_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hp
{

/** Finalizer from SplitMix64; a high-quality 64->64 bit mixer. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Combines a hash with a new value (boost::hash_combine style). */
constexpr std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t value)
{
    return seed ^ (mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                   (seed >> 2));
}

/**
 * Hashes @p n bytes through hashCombine a 64-bit word at a time (the
 * last partial word zero-padded), starting from @p seed and the
 * length. Words load in host byte order: the checkpoint blob that
 * stores these hashes already requires a little-endian host.
 */
inline std::uint64_t
hashBytes(const void *data, std::size_t n,
          std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = hashCombine(seed, n);
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        h = hashCombine(h, word);
    }
    if (n > 0) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, n);
        h = hashCombine(h, word);
    }
    return h;
}

/** Folds a 64-bit hash down to @p bits bits (bits in [1, 63]). */
constexpr std::uint64_t
foldTo(std::uint64_t hash, unsigned bits)
{
    std::uint64_t folded = hash ^ (hash >> 32);
    folded ^= folded >> 16;
    return folded & ((1ULL << bits) - 1);
}

} // namespace hp

#endif // HP_UTIL_HASH_HH
