/**
 * @file
 * Metrics extracted from a simulation run, plus the paired-run
 * computations (speedup, coverage over the FDIP baseline) used by every
 * table and figure.
 */

#ifndef HP_SIM_METRICS_HH
#define HP_SIM_METRICS_HH

#include <cstdint>
#include <memory>

#include "cache/hierarchy.hh"
#include "stats/registry.hh"

namespace hp
{

struct SamplingInfo;
struct LatencyReport;

namespace obs
{
struct TailAttribution;
} // namespace obs

/**
 * Everything a single simulation run reports (measurement phase). The
 * counters live in `stats` only; cycles and instructions repeat its
 * sim.cycles and sim.instructions because every consumer needs them.
 */
struct SimMetrics
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    double ipc() const { return cycles ? double(instructions) / cycles : 0.0; }

    // Synthetic data-side DRAM traffic for bandwidth normalization.
    std::uint64_t dataDramBytes = 0;

    /**
     * Measurement-phase delta of every registered counter, keyed by
     * dotted path (see Simulator::stats()): the one representation
     * of a run's counters. Typed readers below derive ratios from it;
     * it also feeds the JSON run reports (sim/run_report.hh).
     */
    StatsSnapshot stats;

    /**
     * Present only when this result came from sampled simulation
     * (sim/sampling.hh): the interval breakdown and confidence
     * interval behind the extrapolated totals above. Shared because
     * SimMetrics is copied freely through the runner's result cache.
     */
    std::shared_ptr<const SamplingInfo> sampling;

    /**
     * Present only on scenario runs (SimConfig::scenario non-empty):
     * per-request latency percentiles and queue statistics from the
     * measurement phase (workload/latency_tracker.hh). Shared for the
     * same reason as `sampling`.
     */
    std::shared_ptr<const LatencyReport> latency;

    /**
     * Present only on scenario runs with request spans enabled
     * (HP_SPANS / --spans): the bounded per-chain tail-attribution
     * roll-up (obs/request_span.hh). Shared like `latency`.
     */
    std::shared_ptr<const obs::TailAttribution> tailAttribution;

    /** Metrics over @p stats, with cycles and instructions read from
     *  its sim.* paths. */
    static SimMetrics fromStats(StatsSnapshot stats);

    /** Total DRAM traffic in bytes, the dram.* paths plus the data
     *  side (Figure 16 numerator). */
    std::uint64_t totalDramBytes() const;
};

/** Paired-run derived metrics (prefetcher run vs FDIP-only baseline). */
struct PairedMetrics
{
    /** IPC speedup over the FDIP baseline (e.g. 0.066 = +6.6%). */
    double speedup = 0.0;

    /**
     * L1-I coverage on top of FDIP: fraction of the baseline's demand
     * misses that the Ext prefetcher turned into hits or merges.
     */
    double coverageL1 = 0.0;

    /** L2 coverage on top of FDIP (same definition, at the L2). */
    double coverageL2 = 0.0;

    /** Ext prefetch accuracy. */
    double accuracy = 0.0;

    /** Fraction of demand-serving Ext prefetches arriving late. */
    double lateFraction = 0.0;

    /** Average useful-prefetch distance in cache blocks. */
    double avgDistance = 0.0;

    /** Total DRAM traffic relative to the baseline (1.0 = equal). */
    double bandwidthRatio = 1.0;

    /** Long-range L2 misses eliminated relative to the baseline. */
    double longRangeEliminated = 0.0;

    /** Instruction miss-latency cycles relative to the baseline. */
    double missLatencyRatio = 1.0;
};

/** Computes the paired metrics for @p run against @p baseline. */
PairedMetrics pairedMetrics(const SimMetrics &run,
                            const SimMetrics &baseline);

// ---- Results derived from a snapshot ------------------------------
//
// Each reads the registry paths of a (measurement-phase) snapshot;
// a path the snapshot lacks is fatal.

/** Demand-miss latency cycles over every server (l1i.miss_cycles_*). */
std::uint64_t totalMissCycles(const StatsSnapshot &stats);

/** Mean distance, in fetch blocks, of useful Ext prefetches. */
double meanUsefulDistance(const StatsSnapshot &stats);

/** Per-Bundle-execution means of a Hierarchical Prefetcher run with
 *  trackBundleStats (Table 4); zero where nothing was sampled. */
struct BundleMeans
{
    double execInsts = 0.0;
    double execCycles = 0.0;
    double footprintBlocks = 0.0;
    double jaccard = 0.0;
};

BundleMeans bundleMeans(const StatsSnapshot &stats);

} // namespace hp

#endif // HP_SIM_METRICS_HH
