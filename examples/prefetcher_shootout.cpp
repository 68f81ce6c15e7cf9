/**
 * @file
 * Prefetcher shootout: runs every prefetcher (and the perfect-L1-I
 * upper bound) on one workload and prints a detailed comparison —
 * IPC, speedup over FDIP, accuracy/coverage, late prefetches, prefetch
 * distance, on-chip storage, and the front-end stall breakdown.
 *
 * Usage: prefetcher_shootout [workload]   (default: tidb-tpcc)
 */

#include <cstdio>
#include <string>

#include "sim/runner.hh"
#include "stats/table.hh"

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "tidb-tpcc";

    const hp::PrefetcherKind kinds[] = {
        hp::PrefetcherKind::None,        hp::PrefetcherKind::EFetch,
        hp::PrefetcherKind::Mana,        hp::PrefetcherKind::Eip,
        hp::PrefetcherKind::Hierarchical,
        hp::PrefetcherKind::PerfectL1I,
    };

    hp::AsciiTable table("Prefetcher shootout: " + workload);
    table.setHeader({"prefetcher", "IPC", "speedup", "acc", "covL1",
                     "covL2", "late", "dist", "storage", "L1Imiss/ki",
                     "L2miss/ki", "fe-stall", "be-stall"});

    for (hp::PrefetcherKind kind : kinds) {
        hp::SimConfig config = hp::defaultConfig(workload, kind);
        hp::RunPair pair = hp::ExperimentRunner::runPair(config);
        const hp::SimMetrics &m = pair.run;

        hp::NullMetadataMemory null_mem;
        auto pf = hp::makePrefetcher(config, null_mem);
        double storage_kb =
            pf ? double(pf->storageBits()) / 8.0 / 1024.0 : 0.0;

        double ki = double(m.instructions) / 1000.0;
        table.addRow({
            hp::prefetcherName(kind),
            hp::fmtDouble(m.ipc(), 3),
            hp::fmtPercent(pair.paired.speedup),
            hp::fmtPercent(pair.paired.accuracy),
            hp::fmtPercent(pair.paired.coverageL1),
            hp::fmtPercent(pair.paired.coverageL2),
            hp::fmtPercent(pair.paired.lateFraction),
            hp::fmtDouble(pair.paired.avgDistance, 1),
            hp::fmtDouble(storage_kb, 1) + "KB",
            hp::fmtDouble(double(m.stats.value("l1i.demand_misses")) / ki,
                          2),
            hp::fmtDouble(double(m.stats.value("l2i.demand_misses")) / ki,
                          2),
            hp::fmtDouble(
                double(m.stats.value("sim.fetch_stall_cycles")) / m.cycles,
                2),
            hp::fmtDouble(
                double(m.stats.value("sim.backend_stall_cycles")) /
                    m.cycles,
                2),
        });
    }
    std::fputs(table.render().c_str(), stdout);

    // Front-end detail of the baseline.
    hp::SimConfig base = hp::defaultConfig(workload);
    const hp::SimMetrics &b = hp::ExperimentRunner::run(base);
    const hp::StatsSnapshot &s = b.stats;
    double ki = double(b.instructions) / 1000.0;
    auto pki = [&](const char *path) { return double(s.value(path)) / ki; };
    std::printf(
        "\nbaseline detail: %.2f cond-MPKI, %.2f indirect-MPKI, "
        "%.2f RAS-MPKI, %.2f BTB-miss/ki, %.2f iTLB-miss/ki\n",
        pki("cond.mispredicts"), pki("indirect.mispredicts"),
        pki("sim.ras_mispredicts"), pki("btb.misses"),
        pki("itlb.misses"));
    const std::uint64_t requests = s.value("engine.requests");
    std::printf("requests: %llu (avg %.0f insts)\n",
                (unsigned long long)requests,
                requests ? double(s.value("engine.instructions")) /
                               double(requests)
                         : 0.0);
    std::printf("miss cycles: L2 %llu, LLC %llu, mem %llu, mshr %llu\n",
                (unsigned long long)s.value("l1i.miss_cycles_l2"),
                (unsigned long long)s.value("l1i.miss_cycles_llc"),
                (unsigned long long)s.value("l1i.miss_cycles_mem"),
                (unsigned long long)s.value("l1i.miss_cycles_mshr"));
    return 0;
}
