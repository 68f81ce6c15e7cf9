/**
 * @file
 * Per-line prefetch-lifecycle tracking and L1-I miss attribution.
 *
 * Every L1-I demand miss is attributed to exactly one cause class, so
 * the `missAttribution.*` registry subtree always partitions
 * `l1i.demand_misses` (the invariant the obs tests enforce):
 *
 *  - never_prefetched:   no prefetch targeted the block since it was
 *                        last resident (cold and conflict misses the
 *                        prefetchers never saw coming);
 *  - prefetch_late:      the demand merged into an in-flight prefetch
 *                        (the prefetch was right but not early enough);
 *  - prefetched_evicted: a prefetch filled the block, but it was
 *                        evicted before its first demand use;
 *  - demand_evicted:     the block was demand-resident (or a used
 *                        prefetch) before being evicted — a capacity /
 *                        conflict re-miss;
 *  - resource_contention: MSHR pressure — either the miss itself hit a
 *                        full MSHR file (retry path) or an earlier
 *                        prefetch for the block was dropped for lack
 *                        of an MSHR (demand and metadata traffic
 *                        crowding out the prefetcher);
 *  - wrong_path:         reserved; structurally zero in this model
 *                        because the simulated front end never fetches
 *                        wrong-path blocks (see DESIGN.md Section 5).
 *
 * The tracker keeps a small per-block history (flags + the class of
 * the last miss episode) in a flat hash map; the cost is confined to
 * miss and prefetch paths and only paid when attribution is enabled.
 * The counter block itself always exists so the registry's shape does
 * not depend on whether observability is on.
 */

#ifndef HP_OBS_MISS_ATTRIBUTION_HH
#define HP_OBS_MISS_ATTRIBUTION_HH

#include <array>
#include <cstdint>
#include <string>

#include "stats/registry.hh"
#include "util/flat_map.hh"
#include "util/serialize.hh"
#include "util/types.hh"

namespace hp
{

/** Cause classes; kept in registry/report order. */
enum class MissCause : std::uint8_t
{
    NeverPrefetched,
    PrefetchLate,
    PrefetchedEvicted,
    DemandEvicted,
    ResourceContention,
    WrongPath,
    kCount
};

constexpr unsigned kNumMissCauses =
    static_cast<unsigned>(MissCause::kCount);

/** Registry/report name of a cause class ("never_prefetched", ...). */
const char *missCauseName(MissCause cause);

class MissAttribution
{
  public:
    /** Per-class miss counts and summed service latencies. */
    struct Counters
    {
        std::array<std::uint64_t, kNumMissCauses> count{};
        std::array<std::uint64_t, kNumMissCauses> latencyCycles{};

        std::uint64_t
        total() const
        {
            std::uint64_t sum = 0;
            for (std::uint64_t c : count)
                sum += c;
            return sum;
        }
    };

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    // ---- Lifecycle hooks (called from the cache hierarchy) ----

    /** A prefetch was accepted into an MSHR for @p block. */
    void onPrefetchAccepted(Addr block);

    /** A prefetch for @p block was dropped (no MSHR). */
    void onPrefetchDropped(Addr block);

    /** @p block left the L1-I. @p prefetch_origin: brought in by a
     *  prefetcher; @p used: had served at least one demand access. */
    void onEvicted(Addr block, bool prefetch_origin, bool used);

    // ---- Demand-miss classification (exactly one per L1-I miss) ----

    /** Miss merged into an in-flight fill. @p prefetch_origin is the
     *  MSHR's originator; @p wait the remaining fill latency. */
    void onMissMerge(Addr block, bool prefetch_origin, Cycle wait);

    /** Miss bounced off a full MSHR file (will be retried). */
    void onMissRetry(Addr block);

    /** Miss that allocated a fresh demand MSHR; @p latency is the
     *  service latency of the level that answers it. */
    void onMissFill(Addr block, Cycle latency);

    const Counters &counters() const { return counters_; }

    /** Registers the counters under "<prefix>.<class>[_latency_cycles]".
     *  Registered unconditionally so the registry's path set does not
     *  depend on whether attribution is enabled. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    /** Tracked-line count (tests/diagnostics). */
    std::size_t trackedLines() const { return lines_.size(); }

    /** Serializes per-line state (checkpointing; only called when
     *  attribution is enabled — see Simulator). */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, lines_);
    }

  private:
    /** Per-block history since the block was last resident. */
    struct LineState
    {
        bool prefetchEvicted = false; ///< Prefetched, evicted unused.
        bool demandEvicted = false;   ///< Was resident and used.
        bool prefetchDropped = false; ///< Prefetch lost to MSHR pressure.
        MissCause lastCause = MissCause::NeverPrefetched;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(prefetchEvicted);
            ar.value(demandEvicted);
            ar.value(prefetchDropped);
            ar.value(lastCause);
        }
    };

    void account(MissCause cause, Cycle latency);
    MissCause classify(const LineState &line) const;

    bool enabled_ = false;
    FlatMap<Addr, LineState> lines_;
    Counters counters_;
};

} // namespace hp

#endif // HP_OBS_MISS_ATTRIBUTION_HH
