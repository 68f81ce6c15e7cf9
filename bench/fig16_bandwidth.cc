/**
 * @file
 * Figure 16 — memory bandwidth overhead of Hierarchical Prefetching,
 * normalized to the FDIP baseline (all DRAM traffic: demand and
 * prefetch instruction fills, metadata reads/writes, and the data
 * side). Paper: +4% average, +10% worst case; of the overhead, ~40%
 * is overpredicted prefetches and ~60% metadata traffic.
 */

#include <cstdio>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "fig16_bandwidth");
    using namespace hp;

    AsciiTable table("Figure 16: memory bandwidth vs FDIP baseline");
    table.setHeader({"workload", "total", "overpredict share",
                     "metadata share"});

    std::vector<SimConfig> grid;
    for (const std::string &workload : allWorkloads())
        grid.push_back(
            defaultConfig(workload, PrefetcherKind::Hierarchical));
    std::vector<RunPair> pairs = hpbench::runPairs(grid);

    std::vector<double> ratios, over_share, meta_share;
    std::size_t next = 0;
    for (const std::string &workload : allWorkloads()) {
        const RunPair &pair = pairs[next++];

        double ratio = pair.paired.bandwidthRatio;
        ratios.push_back(ratio);

        // Overhead decomposition: extra prefetch-fill traffic vs
        // metadata traffic.
        double extra = double(pair.run.totalDramBytes()) -
                       double(pair.base.totalDramBytes());
        const StatsSnapshot &s = pair.run.stats;
        double meta = double(s.value("dram.metadata_read_bytes") +
                             s.value("dram.metadata_write_bytes"));
        double prefetch_extra = double(s.value("dram.ext_bytes"));
        double denom = meta + prefetch_extra;
        double os = denom > 0 ? prefetch_extra / denom : 0.0;
        double ms = denom > 0 ? meta / denom : 0.0;
        (void)extra;
        over_share.push_back(os);
        meta_share.push_back(ms);

        table.addRow({workload, fmtPercent(ratio - 1.0) + " extra",
                      fmtPercent(os), fmtPercent(ms)});
    }
    table.addRow({"MEAN",
                  fmtPercent(hpbench::mean(ratios) - 1.0) + " extra",
                  fmtPercent(hpbench::mean(over_share)),
                  fmtPercent(hpbench::mean(meta_share))});
    std::fputs(table.render().c_str(), stdout);

    hpbench::paperFooter(
        "Fig16",
        "bandwidth overhead +4% avg / +10% worst; 40% from "
        "overpredicted prefetches, 60% from metadata",
        "MEAN row above");
    return 0;
}
