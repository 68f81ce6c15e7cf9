/**
 * @file
 * The set-associative LRU table behind every such structure the
 * evaluation configures: the L1-I, L2 and LLC (SetAssocCache), the
 * BTB, EIP's entangling table and HP's Metadata Address Table.
 *
 * The table owns two parallel arrays, indexed by slot
 * (set * ways + way):
 *  - the tags: each way's key, with its valid state in the key's top
 *    bit. Invalidating a way clears only that bit, so the stale key
 *    stays, and a checkpoint records the whole word;
 *  - the LRU stamps, taken from one table-wide use clock.
 * Owners keep their payload (origins, targets, pointers) in their own
 * arrays, indexed by the same slot.
 *
 * The searches compare every way of the range and carry their answer
 * in a conditional move, with no data-dependent exit (a hit in a
 * random way is a mispredicted exit for an early-exit loop), but they
 * choose what an early-exit scan from the lowest way chooses:
 *  - find() returns the first way that holds the key;
 *  - victim() returns the first way that holds the key or is invalid,
 *    and otherwise the first way with the smallest stamp.
 * First-match matters wherever a set can hold a key twice: an owner
 * that invalidates single ways (the MAT) can leave a hole before a
 * resident copy, and the next insert of that key fills the hole.
 */

#ifndef HP_UTIL_SET_ASSOC_TABLE_HH
#define HP_UTIL_SET_ASSOC_TABLE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

template <typename Tag>
class SetAssocTable
{
    static_assert(std::is_unsigned_v<Tag>, "tags are unsigned keys");

  public:
    /** The valid bit of a tag word; keys must leave it clear. */
    static constexpr Tag kValid = Tag(1)
                                  << (std::numeric_limits<Tag>::digits - 1);

    /** find()'s answer when no way holds the key. */
    static constexpr std::size_t kNone = ~std::size_t(0);

    /** @p sets may be 0: an empty table, for an owner's unbounded
     *  mode (the infinite BTB). */
    SetAssocTable(unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways), pow2_(std::has_single_bit(sets))
    {
        fatalIf(ways == 0 || ways > 64,
                "set-associative table: associativity must be 1-64");
        tags_.assign(std::size_t(sets) * ways, 0);
        stamps_.assign(tags_.size(), 0);
    }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }
    std::size_t size() const { return tags_.size(); }

    /** The set of a key whose index bits are @p hash: a mask when the
     *  set count is a power of two, else a modulo (the fractional
     *  instruction shares of the unified levels). */
    unsigned
    setOf(std::uint64_t hash) const
    {
        return static_cast<unsigned>(pow2_ ? hash & (sets_ - 1)
                                           : hash % sets_);
    }

    /** Slot of the first way in [lo, hi) of @p set holding @p key,
     *  or kNone. */
    std::size_t
    find(unsigned set, Tag key, unsigned lo, unsigned hi) const
    {
        const std::size_t base = std::size_t(set) * ways_;
        const Tag *tags = &tags_[base];
        const Tag want = key | kValid;
        // From the last way down, each match replaces the answer, so
        // the first one wins.
        std::size_t hit = kNone;
        for (unsigned w = hi; w-- > lo;)
            hit = tags[w] == want ? base + w : hit;
        return hit;
    }

    std::size_t
    find(unsigned set, Tag key) const
    {
        return find(set, key, 0, ways_);
    }

    /**
     * Slot an insert of @p key into [lo, hi) of @p set takes: the
     * first way that holds the key or is invalid, else the first way
     * with the smallest stamp (the LRU way).
     */
    std::size_t
    victim(unsigned set, Tag key, unsigned lo, unsigned hi) const
    {
        const std::size_t base = std::size_t(set) * ways_;
        const Tag *tags = &tags_[base];
        const std::uint64_t *stamps = &stamps_[base];
        const Tag want = key | kValid;
        // Two independent chains: the first open way (from the last
        // way down), and the first oldest way (upward, strict <).
        unsigned open = hi;
        for (unsigned w = hi; w-- > lo;)
            open = (tags[w] == want) | (tags[w] < kValid) ? w : open;
        unsigned lru = lo;
        std::uint64_t oldest = stamps[lo];
        for (unsigned w = lo + 1; w < hi; ++w) {
            const bool older = stamps[w] < oldest;
            oldest = older ? stamps[w] : oldest;
            lru = older ? w : lru;
        }
        return base + (open < hi ? open : lru);
    }

    std::size_t
    victim(unsigned set, Tag key) const
    {
        return victim(set, key, 0, ways_);
    }

    bool valid(std::size_t slot) const { return tags_[slot] & kValid; }

    /** The way's key, stale if the way is invalid. */
    Tag key(std::size_t slot) const { return tags_[slot] & ~kValid; }

    bool
    holds(std::size_t slot, Tag key) const
    {
        return tags_[slot] == (key | kValid);
    }

    /** Makes the way the most recently used. */
    void touch(std::size_t slot) { stamps_[slot] = ++clock_; }

    /** Installs @p key, valid and most recently used. */
    void
    fill(std::size_t slot, Tag key)
    {
        panicIf(key & kValid, "set-associative table: key uses the "
                              "valid bit");
        tags_[slot] = key | kValid;
        touch(slot);
    }

    void invalidate(std::size_t slot) { tags_[slot] &= ~kValid; }

    /** Invalidates ways [lo, hi) of every set.
     *  @return Ways that were valid. */
    std::size_t
    invalidateWays(unsigned lo, unsigned hi)
    {
        std::size_t flushed = 0;
        for (std::size_t base = 0; base < tags_.size(); base += ways_) {
            for (unsigned w = lo; w < hi; ++w) {
                flushed += valid(base + w);
                tags_[base + w] &= ~kValid;
            }
        }
        return flushed;
    }

    std::size_t
    invalidateAll()
    {
        return invalidateWays(0, ways_);
    }

    /** Valid ways in the whole table. */
    std::size_t
    occupancy() const
    {
        std::size_t live = 0;
        for (Tag t : tags_)
            live += (t & kValid) != 0;
        return live;
    }

    /**
     * Checkpointing: the slot count (the one geometry field the
     * encoding records), the use clock, the tag words, then the
     * stamps. Every tag word is a legal encoding: its top bit is the
     * valid state and the rest the (possibly stale) key. The words are
     * packed with the valid bit rotated down to bit 0, so that small
     * keys stay small. Owners write their payload arrays after it.
     * @return false when the blob's table has another slot count.
     */
    template <class Ar>
    bool
    serializeState(Ar &ar)
    {
        if (!checkShape(ar, tags_))
            return false;
        ar.value(clock_);
        ioElements(
            ar, tags_, [](Tag t) { return std::rotl(t, 1); },
            [](Tag t) { return std::rotr(t, 1); });
        ioElements(ar, stamps_);
        return true;
    }

  private:
    unsigned sets_;
    unsigned ways_;
    bool pow2_;
    std::uint64_t clock_ = 0;
    std::vector<Tag> tags_;
    std::vector<std::uint64_t> stamps_;
};

} // namespace hp

#endif // HP_UTIL_SET_ASSOC_TABLE_HH
