/**
 * @file
 * Metadata Address Table (Section 5.3.3): the only sizable on-chip
 * structure of the Hierarchical Prefetcher. A set-associative,
 * LRU-replaced table mapping 24-bit Bundle IDs to the head-segment
 * index of their record in the in-memory Metadata Buffer.
 *
 * Default geometry (512 entries, 8-way, 18-bit tag + 11-bit pointer +
 * valid bit + per-way LRU bit) matches the paper's 1.94 KB budget.
 */

#ifndef HP_CORE_METADATA_TABLE_HH
#define HP_CORE_METADATA_TABLE_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/metadata_buffer.hh"
#include "util/set_assoc_table.hh"

namespace hp
{

/** 24-bit Bundle identifier. */
using BundleId = std::uint32_t;

/** Width of a Bundle ID in bits. */
constexpr unsigned kBundleIdBits = 24;

/** Set-associative Bundle ID -> head segment map with LRU replacement. */
class MetadataAddressTable
{
  public:
    /**
     * @param entries     Total entries (power of two; paper: 512).
     * @param ways        Associativity (paper: 8).
     * @param pointer_bits Width of the stored segment pointer, used
     *                    only for the storage-bit report.
     */
    MetadataAddressTable(unsigned entries = 512, unsigned ways = 8,
                         unsigned pointer_bits = 11);

    /**
     * Looks up @p id and refreshes its LRU position on hit.
     * @return Head segment index, or nullopt on miss.
     */
    std::optional<SegIdx> lookup(BundleId id);

    /**
     * Inserts or updates the mapping, evicting the set's LRU entry if
     * needed.
     */
    void insert(BundleId id, SegIdx head);

    /** Removes the mapping for @p id if present (buffer wraparound). */
    void invalidate(BundleId id);

    /**
     * Invalidates every (active-partition) entry — the OS-like
     * context-switch flush of an unpartitioned MAT.
     * @return Entries invalidated.
     */
    std::size_t invalidateAll();

    // ---- Per-tenant way partitioning (DESIGN.md §12). Off (the
    // single-core default) every set scan covers all ways, exactly
    // the classic behavior. ----

    /**
     * Restricts each tenant to a contiguous slice of the ways in
     * every set (tenant t gets ways [t*W/count, (t+1)*W/count)), so
     * tenants never evict each other's mappings. Requires at least
     * one way per tenant.
     */
    void setWayPartitions(unsigned count);

    /** Selects the way slice subsequent operations scan. */
    void setActiveTenant(unsigned tenant);

    /** On-chip storage in bits (tag + pointer + valid + LRU per way). */
    std::uint64_t storageBits() const;

    unsigned numEntries() const { return unsigned(table_.size()); }

    /** Resident valid entries (diagnostics). */
    std::size_t occupancy() const;

    /** Serializes/restores table contents (checkpointing). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    unsigned setIndex(BundleId id) const { return table_.setOf(id); }
    std::uint32_t tagOf(BundleId id) const { return id >> setBits_; }

    /** [first, last) way range the active tenant may touch. */
    std::pair<unsigned, unsigned>
    wayRange() const
    {
        const unsigned ways = table_.ways();
        if (partCount_ == 0)
            return {0, ways};
        const unsigned lo = activePart_ * ways / partCount_;
        const unsigned hi = (activePart_ + 1) * ways / partCount_;
        return {lo, hi};
    }

    unsigned setBits_;
    unsigned pointerBits_;
    /** Tags by slot, and each way's head segment. */
    SetAssocTable<std::uint32_t> table_;
    std::vector<SegIdx> heads_;

    /** Way partitioning (0 = off) and the active tenant's slice. */
    unsigned partCount_ = 0;
    unsigned activePart_ = 0;
};

} // namespace hp

#endif // HP_CORE_METADATA_TABLE_HH
