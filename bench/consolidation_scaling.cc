/**
 * @file
 * Consolidation scaling (DESIGN.md §12): N tenants packed onto a
 * fixed pool of cores sharing the L2/LLC, the DRAM fill port, and
 * the Metadata Buffer read port, swept over tenant count with
 * per-tenant metadata partitioning off and on. Reports per-core IPC,
 * shared-LLC MPKI, and the Hierarchical Prefetcher's metadata read
 * traffic; with --json the hp-stats-report-v1 document carries the
 * combined snapshot including every core<i>.* path and the mt.*
 * contention counters.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/multicore.hh"

namespace
{

const char kExtraFlags[] =
    "  --smoke              Tiny run lengths (ctest wiring)\n";

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv,
                                    "consolidation_scaling",
                                    kExtraFlags);
    using namespace hp;

    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    // The tenant pool, in packing order. Distinct services: the point
    // of the experiment is cross-tenant metadata interference, which
    // a pool of identical binaries would understate.
    const std::vector<std::string> pool = {
        "tidb-tpcc", "mysql-sysbench", "caddy", "dgraph", "echo", "gin",
    };
    const std::vector<unsigned> tenant_counts =
        smoke ? std::vector<unsigned>{2, 3, 4}
              : std::vector<unsigned>{2, 4, 6};

    SimConfig base;
    base.prefetcher = PrefetcherKind::Hierarchical;
    base.mt.cores = 2;
    base.mt.switchQuantum = smoke ? 20'000 : 50'000;
    base.mt.metadataReadBytesPerCycle = 8;
    base.mt.dramFillGapCycles = 4;
    if (smoke) {
        base.warmupInsts = 60'000;
        base.measureInsts = 120'000;
    } else {
        base.warmupInsts = 400'000;
        base.measureInsts = 800'000;
    }

    std::vector<SimConfig> grid;
    for (unsigned n : tenant_counts) {
        for (bool partitioned : {false, true}) {
            SimConfig cfg = base;
            cfg.mt.tenants.assign(pool.begin(), pool.begin() + n);
            cfg.mt.partitionMetadata = partitioned;
            grid.push_back(cfg);
        }
    }
    std::vector<SimMetrics> results = hpbench::runAll(grid);

    AsciiTable table("Consolidation scaling: tenants on 2 shared cores");
    table.setHeader({"tenants", "partitioned", "per-core IPC",
                     "LLC MPKI", "metadata read KB", "switches",
                     "md-port stall cyc"});

    std::size_t next = 0;
    double mpki_unpart = 0.0, mpki_part = 0.0;
    for (unsigned n : tenant_counts) {
        for (bool partitioned : {false, true}) {
            const SimMetrics &m = results[next++];
            const StatsSnapshot &s = m.stats;

            std::string ipcs;
            for (unsigned c = 0; c < s.value("mt.cores"); ++c) {
                const std::string p = "core" + std::to_string(c) + ".";
                const std::uint64_t cyc = s.value(p + "sim.cycles");
                const std::uint64_t ins =
                    s.value(p + "sim.instructions");
                char buf[16];
                std::snprintf(buf, sizeof(buf), "%.3f",
                              cyc ? double(ins) / double(cyc) : 0.0);
                ipcs += (c ? "/" : "") + std::string(buf);
            }

            const double kinsts = double(m.instructions) / 1000.0;
            const double mpki =
                kinsts > 0 ? double(s.value("llc.demand_misses")) / kinsts
                           : 0.0;
            (partitioned ? mpki_part : mpki_unpart) += mpki;

            table.addRow(
                {std::to_string(n), partitioned ? "yes" : "no", ipcs,
                 fmtDouble(mpki, 3),
                 fmtDouble(double(s.value("hier.metadata_read_bytes")) /
                               1024.0,
                           1),
                 std::to_string(s.value("mt.context_switches")),
                 std::to_string(
                     s.value("mt.metadata_arbiter_stall_cycles"))});
        }
    }
    std::fputs(table.render().c_str(), stdout);

    char measured[128];
    std::snprintf(measured, sizeof(measured),
                  "mean LLC MPKI %.3f unpartitioned vs %.3f partitioned",
                  mpki_unpart / double(tenant_counts.size()),
                  mpki_part / double(tenant_counts.size()));
    hpbench::paperFooter(
        "Consolidation",
        "not a paper figure: §8 extension — metadata partitioning "
        "preserves per-tenant records across scheduling quanta",
        measured);
    return 0;
}
