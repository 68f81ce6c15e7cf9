/**
 * @file
 * CI check + report for request-scoped tail attribution
 * (obs/request_span.hh): one canonical scenario swept at low and high
 * utilization with spans on, rendered to the full hp-stats-report-v1
 * document (tailAttribution block included) and diffed byte-for-byte
 * against a checked-in golden. For each sweep point it prints the
 * p999-vs-median cause breakdown per request chain — the table the
 * observability layer exists to produce: at low utilization the tail
 * and median cohorts look alike; at high utilization the tail is
 * dominated by queueing, not by worse cache behaviour.
 *
 * Every run also re-checks the structural invariants in-process:
 * in_span + outside must partition the run's own measurement delta
 * exactly, for every entry of the span table, and the tail cohort can
 * never report a smaller mean latency than its equally sized median
 * cohort.
 *
 * `--smoke` runs the same sweep at a shorter measurement length with
 * the invariant checks only (no golden), for the fast tier-1 lane.
 *
 * Simulators are constructed directly (not through the executor):
 * the span config is process-global, so a memoized obs-off result
 * must never be able to satisfy a spans-on request.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "obs/miss_attribution.hh"
#include "obs/request_span.hh"
#include "sim/simulator.hh"

namespace
{

using namespace hp;

bool g_ok = true;

void
check(bool cond, const std::string &what)
{
    if (!cond) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        g_ok = false;
    }
}

/** The canonical scenario, parameterized by arrival rate. One
 *  tidb-tpcc service behind a single chain: a request retires in
 *  roughly 225k instructions, so 0.001/cycle keeps the service
 *  mostly idle while 0.004/cycle drives a standing queue. */
std::string
sweepScenario(const char *rate)
{
    std::string text =
        "scenario tail-attribution\n"
        "seed 29\n"
        "service db profile=tidb-tpcc\n"
        "chain txn services=db\n";
    text += std::string("phase steady arrival=poisson rate=") + rate +
            "\n";
    return text;
}

struct SweepPoint
{
    const char *label;
    const char *rate;
};

const std::vector<SweepPoint> kSweep = {
    {"low", "0.0010"},
    {"high", "0.0040"},
};

SimConfig
sweepConfig(const SweepPoint &p, bool smoke)
{
    // Constructed directly (not via defaultConfig), so the golden is
    // immune to HP_SAMPLE/HP_SCENARIO in the environment.
    SimConfig config;
    config.scenario = sweepScenario(p.rate);
    config.workload =
        scenarioPrimaryProfile(*cachedScenario(config.scenario));
    config.warmupInsts = 300'000;
    config.measureInsts = smoke ? 900'000 : 1'800'000;
    config.prefetcher = PrefetcherKind::Hierarchical;
    return config;
}

double
cohortMeanLatency(const obs::SpanCohort &c)
{
    return c.count ? double(c.latencySum) / double(c.count) : 0.0;
}

/** Per-request mean of one cause's miss count inside a cohort. */
double
cohortCauseRate(const obs::SpanCohort &c, unsigned cause)
{
    const std::size_t i = obs::spanCounterIndex(
        missCauseName(static_cast<MissCause>(cause)));
    return c.count ? double(c.deltas[i]) / double(c.count) : 0.0;
}

/** The structural invariants every spans-on scenario run must obey,
 *  whatever the utilization. */
void
checkInvariants(const std::string &who, const SimMetrics &m)
{
    check(bool(m.tailAttribution), who + ": tailAttribution missing");
    if (!m.tailAttribution)
        return;
    const obs::TailAttribution &tail = *m.tailAttribution;
    check(tail.spansRecorded > 0, who + ": no spans recorded");
    // A request already in flight when recording starts completes in
    // the latency report but never opened a span, so recorded spans
    // can trail completions — never exceed them.
    check(m.latency && m.latency->completed >= tail.spansRecorded,
          who + ": more spans than completed requests");

    // The telescoping partition: in_span + outside equals the run's
    // own measurement delta, entry by entry of the span table.
    for (const std::string &broken :
         hpbench::brokenSpanPartitions(m.stats, tail))
        check(false, who + ": span partition broke for " + broken);

    for (const obs::TailGroup &g : tail.groups) {
        const obs::SpanCohort worst = g.tailCohort();
        const obs::SpanCohort median = g.medianCohort();
        if (g.completed == 0)
            continue;
        check(worst.count >= 1, who + "/" + g.name +
                                    ": empty tail cohort");
        check(cohortMeanLatency(worst) >= cohortMeanLatency(median),
              who + "/" + g.name +
                  ": tail cohort faster than median cohort");
    }
}

/** The human-readable deliverable: per chain, the tail cohort against
 *  its equally sized median cohort — latency split into queueing vs
 *  service, then the per-request miss-cause rates side by side. */
void
printBreakdown(const std::string &who, const obs::TailAttribution &t)
{
    for (const obs::TailGroup &g : t.groups) {
        const obs::SpanCohort worst = g.tailCohort();
        const obs::SpanCohort median = g.medianCohort();
        std::printf("%s %s [%s]: completed=%llu tail_n=%llu\n", // NOLINT
                    who.c_str(), g.name.c_str(), g.services.c_str(),
                    (unsigned long long)g.completed,
                    (unsigned long long)worst.count);
        std::printf("  latency  tail=%.0f (queue %.0f)  "
                    "median=%.0f (queue %.0f)\n",
                    cohortMeanLatency(worst),
                    worst.count ? double(worst.queueingSum) /
                                      double(worst.count)
                                : 0.0,
                    cohortMeanLatency(median),
                    median.count ? double(median.queueingSum) /
                                       double(median.count)
                                 : 0.0);
        for (unsigned c = 0; c < kNumMissCauses; ++c) {
            const double wt = cohortCauseRate(worst, c);
            const double md = cohortCauseRate(median, c);
            if (wt == 0.0 && md == 0.0)
                continue;
            std::printf("  %-18s tail=%8.1f  median=%8.1f\n",
                        missCauseName(static_cast<MissCause>(c)), wt,
                        md);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::handleCommonArgs(
        argc, argv, "tail_attribution",
        std::string("  --smoke                   short run, invariants "
                    "only\n") +
            hpbench::kGoldenFlags);
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    // This test owns the process-global obs config: spans on, the
    // default reservoir bound, everything else off — regardless of
    // inherited HP_SPANS/HP_TRACE_JSON.
    obs::ObsConfig &ocfg = obs::config();
    ocfg = obs::ObsConfig{};
    ocfg.spans = true;
    obs::Collector::clear();

    std::vector<SimConfig> grid;
    grid.reserve(kSweep.size());
    for (const SweepPoint &p : kSweep)
        grid.push_back(sweepConfig(p, smoke));

    std::vector<SimMetrics> runs;
    for (const SimConfig &config : grid) {
        Simulator sim(config);
        runs.push_back(sim.run());
    }

    for (std::size_t i = 0; i < runs.size(); ++i) {
        checkInvariants(kSweep[i].label, runs[i]);
        if (runs[i].tailAttribution)
            printBreakdown(kSweep[i].label, *runs[i].tailAttribution);
    }

    // Utilization sanity across the sweep: the high-rate point must
    // actually queue harder than the low-rate point.
    if (runs.size() == 2 && runs[0].latency && runs[1].latency) {
        check(runs[1].latency->queueDepthMax >=
                  runs[0].latency->queueDepthMax,
              "high-utilization point queues no deeper than low");
    }

    if (!smoke) {
        RunReportLog::clear();
        RunReportLog::enable();
        for (std::size_t i = 0; i < grid.size(); ++i)
            RunReportLog::record(grid[i], runs[i]);
        g_ok = hpbench::checkGolden(argc, argv,
                                    RunReportLog::documentJson()) &&
               g_ok;
    }

    std::fprintf(stderr, "tail_attribution: %s\n",
                 g_ok ? "OK" : "FAILED");
    return g_ok ? 0 : 1;
}
