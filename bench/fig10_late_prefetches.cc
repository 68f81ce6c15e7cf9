/**
 * @file
 * Figure 10 — percentage of prefetches arriving late (demand hits an
 * in-flight prefetch in the MSHRs). Paper: EFetch 29%, MANA 13%,
 * EIP 7%, Hierarchical 3% on average.
 */

#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "fig10_late_prefetches");
    using namespace hp;

    AsciiTable table("Figure 10: late prefetches (hit in MSHR)");
    table.setHeader(
        {"workload", "EFetch", "MANA", "EIP", "Hierarchical"});

    std::vector<SimConfig> grid;
    for (const std::string &workload : allWorkloads()) {
        for (PrefetcherKind kind : hpbench::comparedPrefetchers())
            grid.push_back(defaultConfig(workload, kind));
    }
    std::vector<RunPair> pairs = hpbench::runPairs(grid);

    std::vector<std::vector<double>> cols(4);
    std::size_t next = 0;
    for (const std::string &workload : allWorkloads()) {
        std::vector<std::string> row = {workload};
        for (unsigned c = 0; c < 4; ++c) {
            const RunPair &pair = pairs[next++];
            cols[c].push_back(pair.paired.lateFraction);
            row.push_back(fmtPercent(pair.paired.lateFraction));
        }
        table.addRow(row);
    }
    table.addRow({"MEAN", fmtPercent(hpbench::mean(cols[0])),
                  fmtPercent(hpbench::mean(cols[1])),
                  fmtPercent(hpbench::mean(cols[2])),
                  fmtPercent(hpbench::mean(cols[3]))});
    std::fputs(table.render().c_str(), stdout);

    hpbench::paperFooter(
        "Fig10",
        "late prefetches: EFetch 29%, MANA 13%, EIP 7%, "
        "Hierarchical 3%",
        "MEAN row above — Hierarchical should be the lowest, EFetch "
        "the highest");
    return 0;
}
