/**
 * @file
 * Figure 2 — the look-ahead studies of the fine-grained prefetchers:
 * (a) MANA accuracy/coverage vs look-ahead spatial regions (paper:
 *     coverage stops improving past ~4 regions, accuracy declines);
 * (b) EFetch accuracy/coverage vs look-ahead callees (paper: coverage
 *     saturates past ~7 calls, accuracy declines);
 * (c) EIP accuracy grouped by observed prefetch distance (paper:
 *     accuracy declines with distance).
 */

#include <cstdio>

#include "bench_util.hh"

namespace
{

using namespace hp;

SimConfig
sweepConfig(PrefetcherKind kind, const std::string &workload,
            unsigned lookahead)
{
    SimConfig config = defaultConfig(workload, kind);
    config.mana.lookahead = lookahead;
    config.efetch.lookahead = lookahead;
    return config;
}

void
sweep(const char *title, PrefetcherKind kind,
      const std::vector<unsigned> &lookaheads)
{
    // Full sweep grid (lookaheads x workloads) submitted up front.
    std::vector<SimConfig> grid;
    for (unsigned la : lookaheads)
        for (const std::string &workload : allWorkloads())
            grid.push_back(sweepConfig(kind, workload, la));
    std::vector<RunPair> pairs = hpbench::runPairs(grid);

    AsciiTable table(title);
    table.setHeader({"look-ahead", "accuracy", "coverage(L1)",
                     "avg distance"});
    std::size_t next = 0;
    for (unsigned la : lookaheads) {
        std::vector<double> acc, cov, dist;
        for (std::size_t w = 0; w < allWorkloads().size(); ++w) {
            const RunPair &pair = pairs[next++];
            acc.push_back(pair.paired.accuracy);
            cov.push_back(pair.paired.coverageL1);
            dist.push_back(pair.paired.avgDistance);
        }
        table.addRow({std::to_string(la),
                      fmtPercent(hpbench::mean(acc)),
                      fmtPercent(hpbench::mean(cov)),
                      fmtDouble(hpbench::mean(dist), 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "fig02_lookahead_sweep");
    sweep("Figure 2a: MANA look-ahead (spatial regions)",
          PrefetcherKind::Mana, {1, 2, 3, 4, 6, 8, 16});
    sweep("Figure 2b: EFetch look-ahead (callees)",
          PrefetcherKind::EFetch, {1, 2, 3, 5, 7, 10, 16});

    // (c) EIP accuracy by distance bin, averaged over apps.
    AsciiTable table("Figure 2c: EIP accuracy vs prefetch distance");
    table.setHeader({"distance (blocks)", "accuracy", "samples"});
    std::vector<std::uint64_t> useful(HierarchyStats::kDistanceBins, 0);
    std::vector<std::uint64_t> unused(HierarchyStats::kDistanceBins, 0);
    std::vector<SimConfig> eip_grid;
    for (const std::string &workload : allWorkloads())
        eip_grid.push_back(defaultConfig(workload, PrefetcherKind::Eip));
    for (const SimMetrics &m : hpbench::runAll(eip_grid)) {
        for (unsigned b = 0; b < HierarchyStats::kDistanceBins; ++b) {
            const std::string bin = "_distance_bin" + std::to_string(b);
            useful[b] += m.stats.value("ext.useful" + bin);
            unused[b] += m.stats.value("ext.unused" + bin);
        }
    }
    for (unsigned b = 0; b < HierarchyStats::kDistanceBins; ++b) {
        std::uint64_t total = useful[b] + unused[b];
        if (total < 50)
            continue;
        std::string range = "[" + std::to_string(1u << b) + "," +
                            std::to_string(1u << (b + 1)) + ")";
        table.addRow({range,
                      fmtPercent(double(useful[b]) / double(total)),
                      std::to_string(total)});
    }
    std::fputs(table.render().c_str(), stdout);

    hpbench::paperFooter(
        "Fig2",
        "all three prefetchers lose accuracy as look-ahead/distance "
        "grows; MANA coverage saturates past ~4 regions, EFetch past "
        "~7 calls",
        "see tables above: accuracy decline and coverage saturation "
        "with look-ahead");
    return 0;
}
