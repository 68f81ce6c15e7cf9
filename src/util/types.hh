/**
 * @file
 * Fundamental types and address arithmetic shared by every subsystem.
 *
 * The simulated machine uses 64-byte cache blocks and fixed 4-byte
 * instructions (AArch64-like), which keeps the synthetic binary model
 * simple without affecting any of the phenomena the paper studies.
 */

#ifndef HP_UTIL_TYPES_HH
#define HP_UTIL_TYPES_HH

#include <cstdint>

namespace hp
{

/** Byte address in the simulated address space. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycle = std::uint64_t;

/** "No event": the answer of a next-event query with nothing pending. */
constexpr Cycle kNever = ~Cycle(0);

/** Size of a cache block in bytes. */
constexpr unsigned kBlockBytes = 64;

/** log2 of the cache block size. */
constexpr unsigned kBlockShift = 6;

/** Size of one instruction in bytes (fixed-width ISA model). */
constexpr unsigned kInstBytes = 4;

/** Instructions per cache block. */
constexpr unsigned kInstsPerBlock = kBlockBytes / kInstBytes;

/** Size of a memory page in bytes (for the I-TLB model). */
constexpr unsigned kPageBytes = 4096;

/** Returns the cache-block-aligned address containing @p addr. */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kBlockBytes - 1);
}

/** Returns the block number (address divided by the block size). */
constexpr Addr
blockNumber(Addr addr)
{
    return addr >> kBlockShift;
}

/** Returns the page-aligned address containing @p addr. */
constexpr Addr
pageAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kPageBytes - 1);
}

/** Rounds @p value up to the next multiple of @p align (a power of 2). */
constexpr std::uint64_t
roundUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

} // namespace hp

#endif // HP_UTIL_TYPES_HH
