/**
 * @file
 * CI check for the warmup checkpoint subsystem: runs a grid whose
 * points share warmup classes twice — cold (plain Simulator, no
 * caches) and through the ExperimentRunner's checkpointed path — and
 * requires bit-identical results: cycles, instructions, and every
 * counter of the StatsSnapshot. The text summary is diffed against a
 * checked-in golden (same discipline as stats_report_check), so the
 * checkpoint machinery can never silently change simulation results.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/simulator.hh"

namespace
{

using namespace hp;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "checkpoint_equivalence",
                                   hpbench::kGoldenFlags);

    // Grid with deliberate warmup sharing: per prefetcher kind, three
    // measurement lengths fork from one warmed state.
    std::vector<SimConfig> grid;
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Eip,
          PrefetcherKind::Hierarchical}) {
        for (std::uint64_t measure : {200'000, 300'000, 400'000}) {
            SimConfig config;
            config.workload = "caddy";
            config.warmupInsts = 150'000;
            config.measureInsts = measure;
            config.prefetcher = kind;
            if (kind == PrefetcherKind::Hierarchical)
                config.hier.trackBundleStats = true;
            grid.push_back(config);
        }
    }

    // Cold reference: plain single-use Simulators, no caching layer of
    // any kind in the path.
    const auto cold_start = std::chrono::steady_clock::now();
    std::vector<SimMetrics> cold;
    cold.reserve(grid.size());
    for (const SimConfig &config : grid)
        cold.push_back(Simulator(config).run());
    const double cold_seconds = secondsSince(cold_start);

    // Checkpointed path: the runner dedups warmups per class.
    const auto warm_start = std::chrono::steady_clock::now();
    std::vector<SimMetrics> warm = hpbench::runAll(grid);
    const double warm_seconds = secondsSince(warm_start);

    bool ok = true;
    std::ostringstream text;
    text << "checkpoint_equivalence "
            "(caddy, 150k warmup, 3 kinds x 3 measure lengths)\n";
    text << "prefetcher measure cycles instructions l1i_misses match\n";
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const bool match = cold[i].cycles == warm[i].cycles &&
                           cold[i].instructions == warm[i].instructions &&
                           cold[i].stats.entries() ==
                               warm[i].stats.entries();
        if (!match) {
            ok = false;
            std::fprintf(stderr, "MISMATCH at grid point %zu\n", i);
            if (cold[i].stats.size() == warm[i].stats.size()) {
                for (std::size_t e = 0; e < cold[i].stats.size(); ++e) {
                    const auto &c = cold[i].stats.entries()[e];
                    const auto &w = warm[i].stats.entries()[e];
                    if (c != w)
                        std::fprintf(stderr,
                                     "  %s: cold %llu warm %llu\n",
                                     c.first.c_str(),
                                     (unsigned long long)c.second,
                                     (unsigned long long)w.second);
                }
            }
        }
        text << prefetcherName(grid[i].prefetcher) << " "
             << grid[i].measureInsts << " " << cold[i].cycles << " "
             << cold[i].instructions << " "
             << cold[i].stats.value("l1i.demand_misses") << " "
             << (match ? "yes" : "NO") << "\n";
    }
    std::fputs(text.str().c_str(), stdout);
    ok = hpbench::checkGolden(argc, argv, text.str()) && ok;

    std::fprintf(stderr,
                 "grid points: %zu, cold %.2fs vs checkpointed %.2fs\n",
                 grid.size(), cold_seconds, warm_seconds);

    if (report.enabled())
        report.write();

    std::fprintf(stderr, "checkpoint_equivalence: %s\n",
                 ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
