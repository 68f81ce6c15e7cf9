/**
 * @file
 * Branch Target Buffer. FDIP's run-ahead is gated on the BTB knowing
 * the target of every taken branch on the path; BTB misses are the main
 * structural limiter of FDIP in server workloads (Section 2.1).
 */

#ifndef HP_FRONTEND_BTB_HH
#define HP_FRONTEND_BTB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/registry.hh"
#include "util/flat_map.hh"
#include "util/set_assoc_table.hh"
#include "util/types.hh"

namespace hp
{

/**
 * Set-associative BTB with LRU replacement. Passing 0 entries selects
 * an infinite-capacity BTB (the Figure 14 study).
 */
class Btb
{
  public:
    /**
     * @param entries Total entries (paper: 8K); 0 means infinite.
     * @param ways    Associativity (paper: 8).
     */
    explicit Btb(unsigned entries = 8192, unsigned ways = 8);

    /** Looks up the target for branch @p pc; refreshes LRU on hit. */
    std::optional<Addr> lookup(Addr pc);

    /** Installs or updates the mapping after the branch resolves. */
    void update(Addr pc, Addr target);

    bool infinite() const { return infinite_; }

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t misses() const { return misses_; }

    /** Serializes/restores the table contents (checkpointing). */
    template <class Ar> void serializeState(Ar &ar);

    /** Registers this BTB's counters under @p prefix. */
    void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        reg.add(prefix + ".lookups", [this] { return lookups_; });
        reg.add(prefix + ".misses", [this] { return misses_; });
    }

  private:
    unsigned setIndex(Addr pc) const;

    bool infinite_;
    /** The finite table (empty when infinite), and each way's target,
     *  indexed by slot. */
    SetAssocTable<Addr> table_;
    std::vector<Addr> targets_;
    FlatMap<Addr, Addr> infTable_;

    std::uint64_t lookups_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace hp

#endif // HP_FRONTEND_BTB_HH
