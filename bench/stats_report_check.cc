/**
 * @file
 * CI check for the stats pipeline: runs a small deterministic grid,
 * prints a text summary that is diffed against a checked-in golden
 * file, and (when `--json` is given, as in the ctest registration)
 * writes the machine-readable run report, reads it back and validates
 * the hp-stats-report-v1 schema plus the StatsSnapshot JSON
 * round-trip. Any drift in the stats plumbing fails this test.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"

namespace
{

using namespace hp;

bool
contains(const std::string &haystack, const char *needle)
{
    if (haystack.find(needle) != std::string::npos)
        return true;
    std::fprintf(stderr, "report is missing %s\n", needle);
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "stats_report_check",
                                   hpbench::kGoldenFlags);

    std::vector<SimConfig> grid;
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Hierarchical}) {
        SimConfig config;
        config.workload = "caddy";
        config.warmupInsts = 150'000;
        config.measureInsts = 300'000;
        config.prefetcher = kind;
        grid.push_back(config);
    }
    std::vector<SimMetrics> runs = hpbench::runAll(grid);

    std::ostringstream text;
    text << "stats_report_check quick grid "
            "(caddy, 150k warmup + 300k measure)\n";
    text << "prefetcher cycles instructions l1i_misses ext_inserted\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SimMetrics &m = runs[i];
        text << prefetcherName(grid[i].prefetcher) << " " << m.cycles
             << " " << m.instructions << " "
             << m.stats.value("l1i.demand_misses") << " "
             << m.stats.value("ext.inserted") << "\n";
    }
    std::fputs(text.str().c_str(), stdout);

    bool ok = hpbench::checkGolden(argc, argv, text.str());

    // Every run's snapshot must survive a JSON round-trip unchanged.
    for (const SimMetrics &m : runs) {
        const StatsSnapshot parsed =
            StatsSnapshot::fromJson(m.stats.toJson());
        if (parsed.entries() != m.stats.entries()) {
            std::fprintf(stderr, "snapshot JSON round-trip drifted\n");
            ok = false;
        }
    }

    if (report.enabled()) {
        report.write();
        const std::string doc = hpbench::readFile(report.path());
        for (const char *key :
             {"\"schema\": \"hp-stats-report-v1\"", "\"runs\"",
              "\"workload\": \"caddy\"", "\"prefetcher\": \"FDIP\"",
              "\"prefetcher\": \"Hierarchical\"", "\"config_key\"",
              "\"stats\"", "\"l1i.demand_misses\"",
              "\"hier.metadata_read_bytes\"", "\"derived\"",
              "\"ipc\"", "\"total_dram_bytes\""}) {
            ok = contains(doc, key) && ok;
        }
    } else {
        std::fprintf(stderr, "note: run with --json to exercise the "
                             "report writer\n");
    }

    std::fprintf(stderr, "stats_report_check: %s\n",
                 ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
