/**
 * @file
 * Unified statistics registry.
 *
 * Every simulated component owns plain counter fields that the hot path
 * increments directly; the registry holds zero-overhead *reader
 * closures* over those fields, keyed by a dotted path
 * (`l1i.demand_misses`, `hier.metadata_read_bytes`, ...). Reading is
 * pull-based: nothing is touched until someone asks for a snapshot, so
 * registering a component costs the simulation loop nothing.
 *
 * A StatsSnapshot freezes every registered counter at one instant;
 * the measurement phase of a run is the delta between the end-of-run
 * snapshot and the one taken when warmup finished. This replaces the
 * per-counter `*AtWarmup_` shadow fields the simulator used to carry.
 *
 * Snapshots serialize to (and parse back from) a flat JSON object, the
 * "stats" section of the machine-readable run reports every bench
 * binary can emit (see sim/run_report.hh and DESIGN.md).
 */

#ifndef HP_STATS_REGISTRY_HH
#define HP_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace hp
{

/** Point-in-time values of every registered counter. */
class StatsSnapshot
{
  public:
    using Entry = std::pair<std::string, std::uint64_t>;

    StatsSnapshot() = default;

    /** Appends an entry (registration order is preserved). */
    void add(std::string path, std::uint64_t value);

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    const std::vector<Entry> &entries() const { return entries_; }

    bool has(const std::string &path) const;

    /** Value of @p path; fatal if the path is not present. */
    std::uint64_t value(const std::string &path) const;

    /**
     * Counter-wise difference @p later - @p earlier. The snapshots
     * must come from the same registry (same paths, same order);
     * anything else is a programming error and fatal.
     */
    static StatsSnapshot delta(const StatsSnapshot &later,
                               const StatsSnapshot &earlier);

    /**
     * Flat JSON object, one `"path": value` member per entry, in
     * entry order. @p indent prefixes every line with that many
     * spaces (used when embedding into a larger document).
     */
    std::string toJson(unsigned indent = 0) const;

    /** Parses the output of toJson() (round-trip exact). */
    static StatsSnapshot fromJson(const std::string &text);

  private:
    std::vector<Entry> entries_;
};

/**
 * The registry: dotted path -> reader closure. Components register
 * their counters once at construction; the simulator snapshots the
 * registry at warmup end and at run end.
 */
class StatsRegistry
{
  public:
    using Reader = std::function<std::uint64_t()>;

    /**
     * Registers @p path with @p reader. Paths must be unique within a
     * registry; duplicates are fatal (they always indicate two
     * components claiming the same scope).
     */
    void add(std::string path, Reader reader);

    std::size_t size() const { return stats_.size(); }
    bool has(const std::string &path) const;

    /** All registered paths, in registration order. */
    std::vector<std::string> paths() const;

    /** Reads @p path right now; fatal if unregistered. */
    std::uint64_t value(const std::string &path) const;

    /**
     * The reader of @p path, for a consumer that reads the counter
     * repeatedly without a path lookup each time (copy it: the
     * reference lives until the next add); a panic if unregistered.
     */
    const Reader &reader(const std::string &path) const;

    /** Reads every counter into a snapshot. */
    StatsSnapshot snapshot() const;

  private:
    std::vector<std::pair<std::string, Reader>> stats_;
};

} // namespace hp

#endif // HP_STATS_REGISTRY_HH
