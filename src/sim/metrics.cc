#include "sim/metrics.hh"

#include <string>

namespace hp
{

SimMetrics
SimMetrics::fromStats(StatsSnapshot stats)
{
    SimMetrics m;
    m.cycles = stats.value("sim.cycles");
    m.instructions = stats.value("sim.instructions");
    m.stats = std::move(stats);
    return m;
}

std::uint64_t
SimMetrics::totalDramBytes() const
{
    return stats.value("dram.demand_bytes") +
           stats.value("dram.fdip_bytes") +
           stats.value("dram.ext_bytes") +
           stats.value("dram.metadata_read_bytes") +
           stats.value("dram.metadata_write_bytes") + dataDramBytes;
}

std::uint64_t
totalMissCycles(const StatsSnapshot &stats)
{
    return stats.value("l1i.miss_cycles_l2") +
           stats.value("l1i.miss_cycles_llc") +
           stats.value("l1i.miss_cycles_mem") +
           stats.value("l1i.miss_cycles_mshr");
}

double
meanUsefulDistance(const StatsSnapshot &stats)
{
    const std::uint64_t n = stats.value("ext.useful_distance_samples");
    return n ? double(stats.value("ext.useful_distance_sum")) / double(n)
             : 0.0;
}

BundleMeans
bundleMeans(const StatsSnapshot &stats)
{
    BundleMeans out;
    auto mean = [&stats](const char *sum, const char *count,
                         double scale = 1.0) {
        const double n = double(stats.value(count));
        return n > 0 ? double(stats.value(sum)) / scale / n : 0.0;
    };
    out.execInsts = mean("hier.bundle_exec_insts_sum",
                         "hier.bundle_executions");
    out.execCycles = mean("hier.bundle_exec_cycles_sum",
                          "hier.bundle_executions");
    out.footprintBlocks = mean("hier.bundle_footprint_blocks_sum",
                               "hier.bundle_executions");
    out.jaccard = mean("hier.bundle_jaccard_sum_ppm",
                       "hier.bundle_jaccard_samples", 1e6);
    return out;
}

PairedMetrics
pairedMetrics(const SimMetrics &run, const SimMetrics &baseline)
{
    PairedMetrics out;

    if (baseline.cycles && run.cycles) {
        double base_ipc = baseline.ipc();
        if (base_ipc > 0.0)
            out.speedup = run.ipc() / base_ipc - 1.0;
    }

    // Coverage over FDIP, as the paper defines it: the fraction of the
    // baseline's demand misses eliminated. Computed from the actual
    // miss reduction (counting served prefetches instead would credit
    // a prefetcher for re-fetching blocks its own pollution evicted).
    auto coverage = [&](const char *misses) {
        const double base = double(baseline.stats.value(misses));
        return base > 0 ? (base - double(run.stats.value(misses))) / base
                        : 0.0;
    };
    out.coverageL1 = coverage("l1i.demand_misses");
    out.coverageL2 = coverage("l2i.demand_misses");

    const PrefetchStats ext = prefetchStats(run.stats, "ext");
    out.accuracy = ext.accuracy();
    out.lateFraction = ext.lateFraction();
    out.avgDistance = meanUsefulDistance(run.stats);

    std::uint64_t base_bw = baseline.totalDramBytes();
    if (base_bw > 0) {
        out.bandwidthRatio =
            double(run.totalDramBytes()) / double(base_bw);
    }

    const std::uint64_t base_long =
        baseline.stats.value("sim.long_range_l2_misses");
    if (base_long > 0) {
        const std::uint64_t now =
            run.stats.value("sim.long_range_l2_misses");
        out.longRangeEliminated =
            now < base_long ? double(base_long - now) / double(base_long)
                            : 0.0;
    }

    std::uint64_t base_lat = totalMissCycles(baseline.stats);
    if (base_lat > 0) {
        out.missLatencyRatio =
            double(totalMissCycles(run.stats)) / double(base_lat);
    }

    return out;
}

} // namespace hp
