/**
 * @file
 * An open-addressing hash map for the simulator's per-block tables.
 *
 * The tables on the per-miss, per-prefetch and per-fetch-block paths
 * (miss attribution history, Ext prefetch issue sequence, replay
 * dedup, EFetch footprints, the MANA index) are keyed by addresses and
 * touched millions of times per simulated second. A node-based
 * std::unordered_map pays a heap allocation per insert and a pointer
 * chase per lookup; this table keeps its slots in one power-of-two
 * array, probes linearly, and erases by backward shift (no
 * tombstones), so once its capacity covers the working set no
 * operation allocates, clear() included.
 *
 * Iteration order is a function of the table's history, so nothing
 * may depend on it: serialization (util/serialize.hh) emits the keys
 * in increasing order.
 */

#ifndef HP_UTIL_FLAT_MAP_HH
#define HP_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/hash.hh"

namespace hp
{

/** Value type of a FlatSet: keys only. */
struct FlatNoValue
{
};

template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_integral_v<K>, "FlatMap keys are integers");

  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Slot count (a power of two, or 0 before the first insert). */
    std::size_t capacity() const { return slots_.size(); }

    /** The value stored under @p key, or null. */
    V *
    find(K key)
    {
        const std::size_t i = slotOf(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    const V *
    find(K key) const
    {
        const std::size_t i = slotOf(key);
        return i == kNone ? nullptr : &slots_[i].value;
    }

    bool contains(K key) const { return slotOf(key) != kNone; }

    /**
     * Inserts a value-initialized entry under @p key unless one is
     * present. @return the entry, and true when it was inserted.
     */
    std::pair<V *, bool>
    insert(K key)
    {
        if (2 * (size_ + 1) > slots_.size())
            rehash(slots_.empty() ? 16 : 2 * slots_.size());
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &s = slots_[i];
            if (!s.full) {
                s.full = true;
                s.key = key;
                s.value = V{};
                ++size_;
                return {&s.value, true};
            }
            if (s.key == key)
                return {&s.value, false};
        }
    }

    V &operator[](K key) { return *insert(key).first; }

    /** Removes @p key. @return true when it was present. */
    bool
    erase(K key)
    {
        std::size_t hole = slotOf(key);
        if (hole == kNone)
            return false;
        // Backward shift: pull each later entry of the probe run into
        // the hole unless that would move it before its home slot.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = next(hole);; i = next(i)) {
            Slot &s = slots_[i];
            if (!s.full)
                break;
            if (((i - home(s.key)) & mask) >= ((i - hole) & mask)) {
                slots_[hole] = std::move(s);
                hole = i;
            }
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

    /** Sizes the table so @p n entries fit without growing. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = 16;
        while (cap < 2 * n)
            cap *= 2;
        if (cap > slots_.size())
            rehash(cap);
    }

    /** Empties the table; the capacity stays allocated. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        for (Slot &s : slots_)
            s = Slot{};
        size_ = 0;
    }

    /** Calls @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.full)
                fn(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        K key{};
        [[no_unique_address]] V value{};
        bool full = false;
    };

    static constexpr std::size_t kNone = ~std::size_t(0);

    /** Index of @p key's slot, or kNone. */
    std::size_t
    slotOf(K key) const
    {
        if (size_ == 0)
            return kNone;
        for (std::size_t i = home(key);; i = next(i)) {
            if (!slots_[i].full)
                return kNone;
            if (slots_[i].key == key)
                return i;
        }
    }

    std::size_t
    home(K key) const
    {
        return static_cast<std::size_t>(
                   mix64(static_cast<std::uint64_t>(key))) &
               (slots_.size() - 1);
    }

    std::size_t next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    void
    rehash(std::size_t capacity)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(capacity, Slot{});
        size_ = 0;
        for (Slot &s : old) {
            if (s.full)
                *insert(s.key).first = std::move(s.value);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

/** FlatMap with keys only. */
template <typename K>
using FlatSet = FlatMap<K, FlatNoValue>;

} // namespace hp

#endif // HP_UTIL_FLAT_MAP_HH
