/**
 * @file
 * Table 4 — Bundle statistics per binary: static Bundle count, total
 * functions, percentage, and the dynamic per-Bundle averages
 * (footprint, execution cycles, Jaccard index between consecutive
 * executions). Paper: 2.3-6.1% of functions are Bundles (avg 3.7%),
 * footprints 15-68 KB, execution 18K-95K cycles, Jaccard 0.80-0.97
 * (avg 0.88). Function counts here are ~10x scaled down (see
 * EXPERIMENTS.md).
 */

#include <cstdio>

#include "bench_util.hh"
#include "workload/program_builder.hh"

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "table4_bundle_stats");
    using namespace hp;

    AsciiTable table("Table 4: Bundle statistics per binary");
    table.setHeader({"binary", "static bundles", "functions",
                     "bundle %", "avg footprint", "avg exec cycles",
                     "avg Jaccard"});

    std::vector<SimConfig> grid;
    for (const std::string &binary : allBinaries()) {
        grid.push_back(defaultConfig(workloadForBinary(binary),
                                     PrefetcherKind::Hierarchical));
    }
    std::vector<SimMetrics> runs = hpbench::runAll(grid);

    std::vector<double> pct, fp, cyc, jac;
    std::size_t next = 0;
    for (const std::string &binary : allBinaries()) {
        const std::string &workload = workloadForBinary(binary);
        const AppProfile &profile = appProfile(workload);
        auto app = ProgramBuilder::cached(profile);

        const BundleMeans bm = bundleMeans(runs[next++].stats);

        double fraction = app->image.analysis.entryFraction;
        double footprint_kb = bm.footprintBlocks * kBlockBytes / 1024.0;
        pct.push_back(fraction);
        fp.push_back(footprint_kb);
        cyc.push_back(bm.execCycles);
        jac.push_back(bm.jaccard);

        table.addRow({binary,
                      std::to_string(app->image.analysis.entries.size()),
                      std::to_string(app->program.numFunctions()),
                      fmtPercent(fraction),
                      fmtDouble(footprint_kb, 1) + "KB",
                      fmtDouble(bm.execCycles, 0),
                      fmtDouble(bm.jaccard, 3)});
    }
    table.addRow({"MEAN", "", "", fmtPercent(hpbench::mean(pct)),
                  fmtDouble(hpbench::mean(fp), 1) + "KB",
                  fmtDouble(hpbench::mean(cyc), 0),
                  fmtDouble(hpbench::mean(jac), 3)});
    std::fputs(table.render().c_str(), stdout);

    hpbench::paperFooter(
        "Table4",
        "bundles are 2.3-6.1% of functions (avg 3.7%); footprints "
        "15-68KB; exec 18K-95K cycles; Jaccard 0.80-0.97 (avg 0.88)",
        "see table (function counts scaled ~10x down vs the paper's "
        "binaries)");
    return 0;
}
