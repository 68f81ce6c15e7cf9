/**
 * @file
 * Sampled-simulation accuracy microbenchmark: for each workload, runs
 * the full measurement phase (after a detailed warmup) and a
 * SMARTS-style sampled run (after a functional one), and reports the
 * sampled IPC estimate, its 95% confidence interval, the error
 * against the full run, and the wall-clock ratio.
 *
 * `--check` is the ctest gate (sampling_accuracy_check): two app
 * profiles, asserting that (a) the full-run IPC lands inside the
 * sampled estimate's reported CI, and (b) running the sampled config
 * twice is bit-identical (interval re-forking is deterministic).
 * `--sample=K,W[,U[,S]]` overrides the sampling parameters under test.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/checkpoint.hh"
#include "sim/sampling.hh"
#include "util/logging.hh"

namespace
{

using namespace hp;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The sampling parameters the fast suite (scripts/tier1.sh --fast)
 *  uses; also this bench's default subject. */
SampleConfig
suiteSampling()
{
    SampleConfig sc;
    sc.intervals = 12;
    sc.windowInsts = 30'000;
    sc.detailWarmupInsts = 10'000;
    sc.seed = 1;
    return sc;
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv,
                                    "micro_sampling_accuracy");
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
    }

    SampleConfig sc = defaultSampling().enabled() ? defaultSampling()
                                                  : suiteSampling();

    std::vector<std::string> workloads;
    if (check)
        workloads = {"gin", "mysql-sysbench"};
    else
        workloads = allWorkloads();

    AsciiTable table("Sampled vs full measurement (" +
                     std::to_string(sc.intervals) + " windows x " +
                     std::to_string(sc.windowInsts) + " insts, warmup " +
                     std::to_string(sc.detailWarmupInsts) + ")");
    table.setHeader({"workload", "full IPC", "sampled IPC", "ci95",
                     "err%", "in CI", "full s", "sampled s", "speedup"});

    int failures = 0;
    std::vector<double> errs, speedups;

    for (const std::string &workload : workloads) {
        SimConfig full = defaultConfig(workload,
                                       PrefetcherKind::Hierarchical);
        full.sample = SampleConfig{};

        SimConfig sampled = full;
        sampled.sample = sc;
        // Warm both legs' checkpoints first (detailed for the full
        // run, functional for the sampled one), so neither timed leg
        // pays for warmup production.
        (void)acquireWarmedCheckpoint(full);
        (void)acquireWarmedCheckpoint(sampled);

        auto t0 = std::chrono::steady_clock::now();
        SimMetrics fm = runCheckpointed(full);
        const double full_s = secondsSince(t0);

        t0 = std::chrono::steady_clock::now();
        SimMetrics sm = runSampled(sampled);
        const double sampled_s = secondsSince(t0);

        fatalIf(!sm.sampling, "sampled run carries no SamplingInfo");
        const double est = sm.sampling->ipcMean;
        const double ci = sm.sampling->ipcCi95;
        const double err = fm.ipc() != 0.0
            ? (est - fm.ipc()) / fm.ipc() * 100.0 : 0.0;
        const bool in_ci = std::fabs(est - fm.ipc()) <= ci;
        const double speedup = sampled_s > 0.0 ? full_s / sampled_s
                                               : 0.0;
        errs.push_back(std::fabs(err));
        speedups.push_back(speedup);
        if (!in_ci)
            ++failures;

        char buf[64];
        std::vector<std::string> row{workload};
        std::snprintf(buf, sizeof buf, "%.4f", fm.ipc());
        row.push_back(buf);
        std::snprintf(buf, sizeof buf, "%.4f", est);
        row.push_back(buf);
        std::snprintf(buf, sizeof buf, "%.4f", ci);
        row.push_back(buf);
        std::snprintf(buf, sizeof buf, "%+.2f", err);
        row.push_back(buf);
        row.push_back(in_ci ? "yes" : "NO");
        std::snprintf(buf, sizeof buf, "%.2f", full_s);
        row.push_back(buf);
        std::snprintf(buf, sizeof buf, "%.2f", sampled_s);
        row.push_back(buf);
        std::snprintf(buf, sizeof buf, "%.1fx", speedup);
        row.push_back(buf);
        table.addRow(row);

        if (check) {
            // Determinism: a second sampled run (fresh mid-stream
            // forks, same blobs) must reproduce the estimate and
            // every aggregated counter bit for bit.
            SimMetrics sm2 = runSampled(sampled);
            fatalIf(!sm2.sampling, "second sampled run lost its info");
            if (sm2.sampling->ipcMean != est ||
                sm2.sampling->ipcCi95 != ci ||
                sm2.stats.entries() != sm.stats.entries()) {
                std::printf("FAIL %s: sampled replay not "
                            "deterministic\n", workload.c_str());
                ++failures;
            }
        }
    }

    std::fputs(table.render().c_str(), stdout);
    std::printf("\nmean |err| %.2f%%, mean wall speedup %.1fx "
                "(measurement phase only; warmup checkpoints pre-warmed)\n",
                hpbench::mean(errs), hpbench::mean(speedups));

    if (check) {
        if (failures) {
            std::printf("FAIL: %d sampling accuracy violations\n",
                        failures);
            return 1;
        }
        std::printf("OK: sampled IPC within its 95%% CI of the full "
                    "run; replay deterministic\n");
    }
    return 0;
}
