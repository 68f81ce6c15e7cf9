/**
 * @file
 * Shared helpers for the table/figure benchmark harnesses: the standard
 * prefetcher lineup, geometric/arithmetic means, the paper-vs-measured
 * footer each bench prints, the opt-in JSON run-report scope
 * (`--json[=path]` flag or HP_STATS_JSON=path) that writes a
 * machine-readable stats document next to the unchanged text output,
 * and the golden-file check of the check binaries.
 */

#ifndef HP_BENCH_BENCH_UTIL_HH
#define HP_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "obs/request_span.hh"
#include "sim/executor.hh"
#include "sim/run_report.hh"
#include "sim/runner.hh"
#include "sim/runtime_options.hh"
#include "sim/sampling.hh"
#include "stats/table.hh"
#include "workload/app_profile.hh"
#include "workload/scenario.hh"

namespace hpbench
{

/**
 * Handles `--help` for a bench binary: prints the generated help text
 * from the runtime-options table (plus the bench's own flags, already
 * formatted one per line) and exits. Also emits the warn-once
 * diagnostic for unrecognized HP_* environment variables, so every
 * bench catches typos at startup. JsonReportScope calls this; benches
 * without a scope call it directly at the top of main().
 */
inline void
handleCommonArgs(int argc, char **argv, const std::string &bench,
                 const std::string &extra_flags = "")
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::string help = hp::runtimeHelpText(bench, extra_flags);
            std::fwrite(help.data(), 1, help.size(), stdout);
            std::exit(0);
        }
    }
    hp::warnUnknownRuntimeEnvOnce();
}

/**
 * Runs every config's (run, FDIP-baseline) pair: the whole grid is
 * submitted to the global executor up front (HP_JOBS workers, default
 * hardware_concurrency) and collected in input order, so the output
 * is bit-identical to a serial sweep.
 */
inline std::vector<hp::RunPair>
runPairs(const std::vector<hp::SimConfig> &configs)
{
    return hp::Executor::global().runPairs(configs);
}

/** Same submission discipline for plain (unpaired) runs. */
inline std::vector<hp::SimMetrics>
runAll(const std::vector<hp::SimConfig> &configs)
{
    return hp::Executor::global().runAll(configs);
}

/**
 * The span-table entries (obs::spanCounterTable) whose in_span +
 * outside in @p tail differs from the measurement delta in @p stats,
 * which is read under @p prefix ("core1." for one core of a
 * consolidation). Empty when the partition holds for every entry.
 */
inline std::vector<std::string>
brokenSpanPartitions(const hp::StatsSnapshot &stats,
                     const hp::obs::TailAttribution &tail,
                     const std::string &prefix = "")
{
    std::vector<std::string> broken;
    const auto &table = hp::obs::spanCounterTable();
    for (std::size_t i = 0; i < table.size(); ++i) {
        std::uint64_t whole = 0;
        for (const std::string &path : table[i].paths)
            whole += stats.value(prefix + path);
        if (tail.inSpan[i] + tail.outside[i] != whole) {
            broken.push_back(table[i].key + ": " +
                             std::to_string(tail.inSpan[i]) + " + " +
                             std::to_string(tail.outside[i]) + " != " +
                             std::to_string(whole));
        }
    }
    return broken;
}

/** The four prefetchers every comparison figure sweeps. */
inline const std::vector<hp::PrefetcherKind> &
comparedPrefetchers()
{
    static const std::vector<hp::PrefetcherKind> kinds = {
        hp::PrefetcherKind::EFetch,
        hp::PrefetcherKind::Mana,
        hp::PrefetcherKind::Eip,
        hp::PrefetcherKind::Hierarchical,
    };
    return kinds;
}

/** Arithmetic mean of a vector (0 for empty). */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / double(values.size());
}

/**
 * Geometric mean of a vector (0 for empty). The right average for
 * ratios such as speedups; pass the ratio itself (1.0 = no change),
 * not the percent delta. Non-positive entries are a caller bug and
 * yield 0, never NaN.
 */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            return 0.0;
        log_sum += std::log(v);
    }
    return std::exp(log_sum / double(values.size()));
}

/**
 * Opt-in machine-readable outputs. Construct at the top of a bench's
 * main(), before any simulation runs:
 *
 *  - `--json[=path]` (or HP_STATS_JSON=path): record every run and
 *    write the hp-stats-report-v1 JSON document at scope exit
 *    (default path "<bench>.stats.json");
 *  - `--trace-json[=path]` (or HP_TRACE_JSON=path): capture trace
 *    events from every run and write one Perfetto/Chrome-loadable
 *    trace at scope exit (default "<bench>.trace.json");
 *  - `--timeseries[=path]` (or HP_TIMESERIES=path): sample registry
 *    deltas every HP_TS_INTERVAL instructions per run and write the
 *    combined CSV at scope exit (default "<bench>.timeseries.csv");
 *  - `--sample=K,W[,U[,S]]` (or HP_SAMPLE): run every default-config
 *    simulation as a SMARTS-style sampled run with K detailed windows
 *    of W instructions, U instructions of detailed warmup each, and
 *    stratum-offset seed S (see sim/sampling.hh). `--sample=off`
 *    overrides an inherited HP_SAMPLE. Results are estimates with a
 *    reported confidence interval — fast mode, not the byte-exact
 *    default.
 *  - `--scenario=path` (or HP_SCENARIO=path): run every
 *    default-config simulation against the declarative scenario spec
 *    in the file (see workload/scenario.hh) instead of the bench's
 *    single workload, and report per-request latency percentiles in
 *    the JSON document's "latency" block. A malformed spec exits
 *    with the line-numbered parse error.
 *  - `--spans` (or HP_SPANS=1): on scenario runs, track request spans
 *    and report the bounded per-chain tail-attribution roll-up in the
 *    JSON document's "tailAttribution" block (HP_SPAN_TOPK bounds the
 *    reservoirs; see obs/request_span.hh).
 *
 * The bench's stdout text output is never touched, and with none of
 * these given the simulations are bit-identical to a build without
 * observability (the obs_overhead_check ctest pins this down).
 */
class JsonReportScope
{
  public:
    JsonReportScope(int argc, char **argv, const std::string &bench,
                    const std::string &extra_flags = "")
    {
        handleCommonArgs(argc, argv, bench, extra_flags);
        hp::obs::ObsConfig &ocfg = hp::obs::config();
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0)
                path_ = bench + ".stats.json";
            else if (std::strncmp(argv[i], "--json=", 7) == 0)
                path_ = argv[i] + 7;
            else if (std::strcmp(argv[i], "--trace-json") == 0)
                ocfg.tracePath = bench + ".trace.json";
            else if (std::strncmp(argv[i], "--trace-json=", 13) == 0)
                ocfg.tracePath = argv[i] + 13;
            else if (std::strcmp(argv[i], "--timeseries") == 0)
                ocfg.timeseriesPath = bench + ".timeseries.csv";
            else if (std::strncmp(argv[i], "--timeseries=", 13) == 0)
                ocfg.timeseriesPath = argv[i] + 13;
            else if (std::strncmp(argv[i], "--sample=", 9) == 0) {
                hp::SampleConfig sc;
                std::string err;
                if (!hp::parseSampleSpec(argv[i] + 9, &sc, &err)) {
                    std::fprintf(stderr, "%s: %s\n", argv[i],
                                 err.c_str());
                    std::exit(2);
                }
                hp::setDefaultSampling(sc);
            } else if (std::strcmp(argv[i], "--spans") == 0) {
                ocfg.spans = true;
            } else if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
                std::string text, err;
                hp::Scenario scen;
                if (!hp::loadScenarioFile(argv[i] + 11, &text, &err) ||
                    !hp::parseScenario(text, &scen, &err)) {
                    std::fprintf(stderr, "%s: %s\n", argv[i],
                                 err.c_str());
                    std::exit(2);
                }
                hp::setDefaultScenario(text);
            }
        }
        if (path_.empty()) {
            if (const char *env = hp::runtimeEnv("HP_STATS_JSON"))
                path_ = env;
        }
        if (!path_.empty())
            hp::RunReportLog::enable();
        obsEnabled_ = ocfg.traceEnabled() || ocfg.timeseriesEnabled();
    }

    ~JsonReportScope() { write(); }

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    /** Writes the outputs now (idempotent; also runs at destruction). */
    void
    write()
    {
        writeObs();
        if (path_.empty() || written_)
            return;
        written_ = true;
        std::string doc = hp::RunReportLog::documentJson();
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write stats report to %s\n",
                         path_.c_str());
            return;
        }
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "stats report: %s (%zu runs)\n",
                     path_.c_str(), hp::RunReportLog::size());
    }

  private:
    void
    writeObs()
    {
        if (!obsEnabled_ || obsWritten_)
            return;
        obsWritten_ = true;
        hp::obs::Collector::writeOutputs();
        const hp::obs::ObsConfig &ocfg = hp::obs::config();
        if (ocfg.traceEnabled()) {
            std::fprintf(stderr, "trace: %s (%zu runs)\n",
                         ocfg.tracePath.c_str(),
                         hp::obs::Collector::runCount());
        }
        if (ocfg.timeseriesEnabled()) {
            std::fprintf(stderr, "timeseries: %s (%zu runs)\n",
                         ocfg.timeseriesPath.c_str(),
                         hp::obs::Collector::runCount());
        }
    }

    std::string path_;
    bool written_ = false;
    bool obsEnabled_ = false;
    bool obsWritten_ = false;
};

/** The whole of the file at @p path; empty when it cannot be read. */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** --help lines for the flags checkGolden reads. */
inline const char *const kGoldenFlags =
    "  --golden=path             diff the output against this file\n"
    "  --update                  with --golden, rewrite the file\n";

/**
 * The golden check of the check binaries. With `--golden=<file>`,
 * @p text must equal the file byte for byte; a drift prints the first
 * line that differs to stderr. With `--golden=<file> --update` the
 * file is rewritten from @p text instead. @return false on a drift or
 * an unreadable golden, true otherwise (also without --golden).
 */
inline bool
checkGolden(int argc, char **argv, const std::string &text)
{
    std::string path;
    bool update = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--golden=", 9) == 0)
            path = argv[i] + 9;
        else if (std::strcmp(argv[i], "--update") == 0)
            update = true;
    }
    if (path.empty())
        return true;
    if (update) {
        std::ofstream(path, std::ios::binary) << text;
        std::fprintf(stderr, "wrote golden: %s\n", path.c_str());
        return true;
    }
    const std::string golden = readFile(path);
    if (golden.empty()) {
        std::fprintf(stderr, "cannot read golden file %s\n", path.c_str());
        return false;
    }
    if (golden == text)
        return true;
    std::istringstream want(golden), got(text);
    std::string want_line, got_line;
    int line = 0;
    do {
        ++line;
        std::getline(want, want_line);
        std::getline(got, got_line);
    } while (want_line == got_line && (want || got));
    std::fprintf(stderr,
                 "output drifted from golden %s at line %d\n"
                 "  golden:   %s\n  measured: %s\n"
                 "(--update rewrites the golden for an intended change)\n",
                 path.c_str(), line, want_line.c_str(), got_line.c_str());
    return false;
}

/**
 * Prints the standard footer: what the paper reports for this
 * experiment and a reminder that shapes, not absolute numbers, are the
 * reproduction target (the substrate is a from-scratch simulator).
 */
inline void
paperFooter(const std::string &exp, const std::string &paper_result,
            const std::string &measured_result)
{
    std::printf("\n[%s] paper:    %s\n", exp.c_str(),
                paper_result.c_str());
    std::printf("[%s] measured: %s\n", exp.c_str(),
                measured_result.c_str());
    std::printf("(shape, not absolute numbers, is the reproduction "
                "target; see EXPERIMENTS.md)\n");
}

} // namespace hpbench

#endif // HP_BENCH_BENCH_UTIL_HH
