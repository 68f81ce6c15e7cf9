/**
 * @file
 * CI check for the scenario subsystem (workload/scenario.hh): runs two
 * canonical scenarios through the experiment runner, renders the full
 * hp-stats-report-v1 document — including the per-request "latency"
 * block — and diffs it byte-for-byte against a checked-in golden. The
 * registered ctest runs it twice, once with HP_JOBS=3, pinning down
 * that scenario replay is bit-identical across worker counts. The
 * same binary also verifies that a run split across a warmup
 * checkpoint (capture at the boundary, restore into a fresh
 * instance) reproduces the direct run exactly, per-request samples
 * included.
 *
 * `--smoke=<file>` instead validates one scenario spec end to end:
 * parse, canonical-form round-trip, a short simulation, and a
 * populated latency report. scripts/tier1.sh runs every example
 * scenario through this mode.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "workload/latency_tracker.hh"

namespace
{

using namespace hp;

/** The two canonical scenarios the golden document pins. Requests
 *  are long (a tidb-tpcc request is ~300k instructions, a three-hop
 *  chain ~2M), so each gets a measurement phase sized for several
 *  completions. */
struct Canonical
{
    const char *file;
    std::uint64_t warmupInsts;
    std::uint64_t measureInsts;
};

const std::vector<Canonical> kCanonical = {
    {"steady_poisson.scenario", 300'000, 1'800'000},
    {"microservice_chain.scenario", 500'000, 4'500'000},
};

SimConfig
canonicalConfig(const std::string &text, const Canonical &c)
{
    // Constructed directly (not via defaultConfig), so the golden is
    // immune to HP_SAMPLE/HP_SCENARIO in the environment.
    SimConfig config;
    config.scenario = text;
    config.workload =
        scenarioPrimaryProfile(*cachedScenario(text));
    config.warmupInsts = c.warmupInsts;
    config.measureInsts = c.measureInsts;
    config.prefetcher = PrefetcherKind::Hierarchical;
    config.hier.trackBundleStats = true;
    return config;
}

bool
sameLatency(const LatencyReport &a, const LatencyReport &b,
            const char *what)
{
    const bool same = a.generated == b.generated &&
        a.completed == b.completed && a.dropped == b.dropped &&
        a.latencyCycles == b.latencyCycles &&
        a.serviceCycles == b.serviceCycles &&
        a.queueDepthSum == b.queueDepthSum &&
        a.queueDepthMax == b.queueDepthMax &&
        a.latencySamples == b.latencySamples &&
        a.serviceSamples == b.serviceSamples;
    if (!same)
        std::fprintf(stderr, "latency reports differ: %s\n", what);
    return same;
}

/** Direct run vs warmup-checkpoint + restore + finish: bit-identical,
 *  per-request latency samples included. */
bool
checkCheckpointReplay(const SimConfig &config)
{
    Simulator direct(config);
    const SimMetrics whole = direct.run();

    Simulator warm(config);
    warm.runWarmup();
    const Checkpoint boundary =
        Checkpoint::capture(warm, "scenario_replay");
    Simulator resumed(config);
    std::string err;
    if (!boundary.restoreInto(resumed, &err)) {
        std::fprintf(stderr, "checkpoint restore failed: %s\n",
                     err.c_str());
        return false;
    }
    const SimMetrics split = resumed.finishRun();

    bool ok = true;
    if (whole.cycles != split.cycles ||
        whole.instructions != split.instructions) {
        std::fprintf(stderr,
                     "checkpointed run diverged: %llu/%llu cycles, "
                     "%llu/%llu insts\n",
                     (unsigned long long)whole.cycles,
                     (unsigned long long)split.cycles,
                     (unsigned long long)whole.instructions,
                     (unsigned long long)split.instructions);
        ok = false;
    }
    if (!whole.latency || !split.latency) {
        std::fprintf(stderr, "scenario run missing latency report\n");
        return false;
    }
    ok = sameLatency(*whole.latency, *split.latency,
                     "direct vs checkpointed") && ok;
    if (whole.stats.entries() != split.stats.entries()) {
        std::fprintf(stderr, "stats snapshots diverged\n");
        ok = false;
    }
    return ok;
}

int
smoke(const std::string &path)
{
    std::string text, err;
    Scenario scen;
    if (!loadScenarioFile(path, &text, &err) ||
        !parseScenario(text, &scen, &err)) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return 1;
    }

    // Canonical-form round-trip: serializing and re-parsing must give
    // back the identical Scenario value.
    Scenario again;
    if (!parseScenario(serializeScenario(scen), &again, &err)) {
        std::fprintf(stderr,
                     "%s: canonical form does not re-parse: %s\n",
                     path.c_str(), err.c_str());
        return 1;
    }
    if (!(scen == again)) {
        std::fprintf(stderr, "%s: round-trip changed the scenario\n",
                     path.c_str());
        return 1;
    }

    // A short default-config run (HP_SAMPLE-aware: tier1 --fast runs
    // this sampled) with a populated, sane latency block.
    SimConfig config = defaultConfig(scenarioPrimaryProfile(scen),
                                     PrefetcherKind::None);
    config.scenario = text;
    const SimMetrics m = runMaybeSampled(config);
    if (!m.latency) {
        std::fprintf(stderr, "%s: no latency report\n", path.c_str());
        return 1;
    }
    const LatencyReport &l = *m.latency;
    bool ok = true;
    if (l.generated == 0) {
        std::fprintf(stderr, "%s: no requests generated\n",
                     path.c_str());
        ok = false;
    }
    if (config.sample.enabled()) {
        // Sampled runs measure short detailed windows; a request
        // longer than the window has its begin or end swallowed by a
        // fast-forward segment and is counted as dropped rather than
        // completed. Every request must still be accounted one way.
        if (l.completed + l.dropped == 0) {
            std::fprintf(stderr, "%s: no requests accounted\n",
                         path.c_str());
            ok = false;
        }
    } else if (l.completed == 0) {
        std::fprintf(stderr, "%s: no requests completed "
                             "(generated=%llu dropped=%llu)\n",
                     path.c_str(), (unsigned long long)l.generated,
                     (unsigned long long)l.dropped);
        ok = false;
    }
    if (l.completed > 0 &&
        (!(l.p50() <= l.p99() && l.p99() <= l.p999()) ||
         l.p50() == 0)) {
        std::fprintf(stderr, "%s: implausible percentiles\n",
                     path.c_str());
        ok = false;
    }
    const double mean_service = l.completed
        ? double(l.serviceCycles) / double(l.completed) : 0.0;
    std::printf("%s: %s gen=%llu done=%llu drop=%llu "
                "service_mean=%.0f p50=%llu p99=%llu p999=%llu "
                "qmean=%.2f qmax=%llu\n",
                path.c_str(), scen.name.c_str(),
                (unsigned long long)l.generated,
                (unsigned long long)l.completed,
                (unsigned long long)l.dropped, mean_service,
                (unsigned long long)l.p50(),
                (unsigned long long)l.p99(),
                (unsigned long long)l.p999(), l.queueDepthMean(),
                (unsigned long long)l.queueDepthMax);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::handleCommonArgs(
        argc, argv, "scenario_replay_check",
        std::string(
            "  --smoke=spec              parse/round-trip/run one scenario\n"
            "  --scenarios=dir           scenario specs directory\n") +
            hpbench::kGoldenFlags);
    std::string scenarios_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--smoke=", 8) == 0)
            return smoke(argv[i] + 8);
        else if (std::strncmp(argv[i], "--scenarios=", 12) == 0)
            scenarios_dir = argv[i] + 12;
    }
    if (scenarios_dir.empty()) {
        std::fprintf(stderr,
                     "usage: scenario_replay_check "
                     "--scenarios=<dir> [--golden=<file> [--update]] "
                     "| --smoke=<file>\n");
        return 2;
    }

    std::vector<SimConfig> grid;
    for (const Canonical &c : kCanonical) {
        const std::string text =
            hpbench::readFile(scenarios_dir + "/" + c.file);
        if (text.empty()) {
            std::fprintf(stderr, "cannot read %s/%s\n",
                         scenarios_dir.c_str(), c.file);
            return 2;
        }
        grid.push_back(canonicalConfig(text, c));
    }

    // The golden document: the grid runs through the HP_JOBS-wide
    // executor, then the report log is filled in input order (the
    // runner's auto-record fires in completion order, which races
    // across workers). Byte equality across job counts and
    // checkpoint modes is the claim.
    std::vector<SimMetrics> runs = hpbench::runAll(grid);
    RunReportLog::clear();
    RunReportLog::enable();
    for (std::size_t i = 0; i < grid.size(); ++i)
        RunReportLog::record(grid[i], runs[i]);
    const std::string doc = RunReportLog::documentJson();

    bool ok = true;
    for (const SimMetrics &m : runs) {
        if (!m.latency || m.latency->completed == 0) {
            std::fprintf(stderr,
                         "canonical run has no completed requests\n");
            ok = false;
        }
    }

    ok = hpbench::checkGolden(argc, argv, doc) && ok;

    // Checkpoint-split replay of the first canonical scenario (the
    // cheap one; the property is engine-level, not per-scenario).
    ok = checkCheckpointReplay(grid.front()) && ok;

    std::fprintf(stderr, "scenario_replay_check: %s\n",
                 ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
