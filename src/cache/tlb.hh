/**
 * @file
 * Instruction TLB model: fully-associative, LRU. Misses charge a fixed
 * page-walk latency; prefetch-side translations never stall the core
 * but inherit the walk latency in their readiness time (Section 5.3.5
 * dispatches spatial-region base addresses to the TLB).
 */

#ifndef HP_CACHE_TLB_HH
#define HP_CACHE_TLB_HH

#include <cstdint>
#include <vector>

#include "stats/registry.hh"
#include "util/types.hh"

namespace hp
{

/** Fully-associative I-TLB with LRU replacement. */
class Tlb
{
  public:
    /**
     * @param entries      Capacity in page entries.
     * @param walk_latency Page-walk latency in cycles on a miss.
     */
    explicit Tlb(unsigned entries = 64, Cycle walk_latency = 50);

    /**
     * Translates the page containing @p addr.
     * @return Added latency: 0 on a hit, the walk latency on a miss
     *         (the entry is filled).
     */
    Cycle translate(Addr addr);

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }

    /** Registers this TLB's counters under @p prefix. */
    void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        reg.add(prefix + ".accesses", [this] { return accesses_; });
        reg.add(prefix + ".misses", [this] { return misses_; });
    }

    /**
     * Drops every resident translation (context-switch flush; the
     * modeled I-TLB is not ASID-tagged). Counters are untouched.
     */
    void flush() { lru_.clear(); }

    /** Serializes/restores the LRU contents (checkpointing). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    unsigned entries_;
    Cycle walkLatency_;

    /**
     * Resident pages in recency order, front = MRU: a linear scan over
     * at most entries_ pages in a vector reserved at construction, so
     * a translation never allocates.
     */
    std::vector<Addr> lru_;

    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace hp

#endif // HP_CACHE_TLB_HH
