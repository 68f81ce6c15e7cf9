/**
 * @file
 * Figure 11 — total demand miss latency for instructions, by the level
 * that served the miss, normalized to the FDIP baseline. Paper:
 * Hierarchical reduces total instruction miss latency by 38.7% (31.1%
 * of L1-level latency and 52.2% of L2-level latency); the best prior
 * technique (EIP) manages 19.7%.
 */

#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "fig11_miss_latency");
    using namespace hp;

    AsciiTable table(
        "Figure 11: instruction miss latency relative to FDIP");
    table.setHeader({"prefetcher", "total", "served-by-L2",
                     "served-beyond-L2"});

    std::vector<SimConfig> grid;
    for (PrefetcherKind kind : hpbench::comparedPrefetchers())
        for (const std::string &workload : allWorkloads())
            grid.push_back(defaultConfig(workload, kind));
    std::vector<RunPair> pairs = hpbench::runPairs(grid);

    std::size_t next = 0;
    for (PrefetcherKind kind : hpbench::comparedPrefetchers()) {
        std::vector<double> total, l1part, l2part;
        for (std::size_t w = 0; w < allWorkloads().size(); ++w) {
            const RunPair &pair = pairs[next++];

            auto l1_lat = [](const SimMetrics &m) {
                // Latency of misses served by the L2 (plus merge wait,
                // which is dominated by short waits).
                return double(m.stats.value("l1i.miss_cycles_l2") +
                              m.stats.value("l1i.miss_cycles_mshr"));
            };
            auto l2_lat = [](const SimMetrics &m) {
                return double(m.stats.value("l1i.miss_cycles_llc") +
                              m.stats.value("l1i.miss_cycles_mem"));
            };
            double base_total = double(totalMissCycles(pair.base.stats));
            if (base_total <= 0)
                continue;
            total.push_back(
                double(totalMissCycles(pair.run.stats)) / base_total);
            if (l1_lat(pair.base) > 0)
                l1part.push_back(l1_lat(pair.run) / l1_lat(pair.base));
            if (l2_lat(pair.base) > 0)
                l2part.push_back(l2_lat(pair.run) / l2_lat(pair.base));
        }
        table.addRow({prefetcherName(kind),
                      fmtPercent(hpbench::mean(total)),
                      fmtPercent(hpbench::mean(l1part)),
                      fmtPercent(hpbench::mean(l2part))});
    }
    std::fputs(table.render().c_str(), stdout);

    hpbench::paperFooter(
        "Fig11",
        "Hierarchical cuts total instruction miss latency by 38.7% "
        "(L1-level -31.1%, L2-level -52.2%); best prior (EIP) -19.7%",
        "rows above are remaining latency vs FDIP (lower is better); "
        "Hierarchical lowest, with the biggest cut beyond the L2");
    return 0;
}
