/**
 * @file
 * CI check for the observability layer's two core guarantees:
 *
 *  1. Zero interference. Running the identical config with tracing,
 *     time-series sampling, and miss attribution all enabled must
 *     leave every architectural counter — cycles, instructions, and
 *     the whole stats registry outside `missAttribution.*` — exactly
 *     equal to the obs-off run. Observability observes; it never
 *     steers.
 *
 *  2. The attribution partition. With attribution on, the
 *     `missAttribution.*` cause classes must sum to exactly
 *     `l1i.demand_misses` (and `wrong_path` stays structurally zero);
 *     with it off the classes must all read zero while the registry
 *     paths still exist.
 *
 * It also smoke-checks the writers: the Perfetto JSON must be
 * structurally valid (balanced, with the expected metadata and span
 * records) and the time-series CSV must carry the documented header
 * and well-formed rows for every run, none with an l1i_mpki above
 * 1000 (the signature of a row whose deltas wrapped around).
 *
 * A final pass repeats guarantee 1 under multi-tenancy: a switching
 * two-tenant core and a two-core config with a "@scenario" tenant run
 * with request spans on, and every architectural counter — combined,
 * per-core, and shared (mt.*) — must equal the obs-off run. The
 * scenario run's tail-attribution roll-up must also partition the
 * scenario core's own measurement delta exactly (in_span + outside ==
 * core delta, for every entry of the span table).
 *
 * Simulators are constructed directly (not through the executor) so
 * the obs-on runs cannot be served from the run-memo cache.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "obs/miss_attribution.hh"
#include "obs/request_span.hh"
#include "sim/multicore.hh"
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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

SimConfig
quickConfig(PrefetcherKind kind)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 150'000;
    config.measureInsts = 300'000;
    config.prefetcher = kind;
    return config;
}

/** Single-chain Poisson scenario for the multi-tenant spans pass. A
 *  tidb-tpcc request retires in roughly 225k instructions, so the
 *  900k-instruction measurement below completes several. */
const char *kMtScenario =
    "scenario span-check\n"
    "seed 11\n"
    "service db profile=tidb-tpcc\n"
    "chain txn services=db\n"
    "phase steady arrival=poisson rate=0.0025\n";

SimConfig
mtConfig(bool withScenario)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 250'000;
    config.measureInsts = 900'000;
    config.prefetcher = PrefetcherKind::Hierarchical;
    config.mt.switchQuantum = 40'000;
    if (withScenario) {
        // Core 0 hosts the switching caddy/gin pair; core 1 runs the
        // scenario stream alone (the "@scenario" sole-tenant rule).
        config.scenario = kMtScenario;
        config.mt.tenants = {"caddy", "@scenario", "gin"};
        config.mt.cores = 2;
    } else {
        config.mt.tenants = {"caddy", "gin"};
        config.mt.cores = 1;
    }
    return config;
}

std::vector<SimMetrics>
runMt(const std::vector<SimConfig> &grid)
{
    std::vector<SimMetrics> out;
    for (const SimConfig &config : grid) {
        MultiCoreSimulator sim(config);
        out.push_back(sim.run());
    }
    return out;
}

std::vector<SimMetrics>
runDirect(const std::vector<SimConfig> &grid)
{
    std::vector<SimMetrics> out;
    for (const SimConfig &config : grid) {
        Simulator sim(config);
        out.push_back(sim.run());
    }
    return out;
}

bool
isAttributionPath(const std::string &path)
{
    // Matches both the combined "missAttribution.*" subtree and the
    // per-core copies ("core<i>.missAttribution.*") of a multi-tenant
    // report: the only paths obs-on runs are allowed to change.
    return path.find("missAttribution.") != std::string::npos;
}

/** Balanced {}/[] outside of strings — cheap structural JSON check. */
bool
jsonBalanced(const std::string &text)
{
    long depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth < 0)
                return false;
        }
    }
    return depth == 0 && !in_string;
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle);
         pos != std::string::npos; pos = text.find(needle, pos + 1))
        ++n;
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::handleCommonArgs(argc, argv, "obs_overhead_check");
    // A clean slate regardless of inherited HP_TRACE_JSON etc.: this
    // test owns the process-global config.
    obs::ObsConfig &ocfg = obs::config();
    ocfg = obs::ObsConfig{};
    obs::Collector::clear();

    const std::vector<SimConfig> grid = {
        quickConfig(PrefetcherKind::None),
        quickConfig(PrefetcherKind::Hierarchical),
    };

    // ---- Pass 1: everything off (the default). ----
    const std::vector<SimMetrics> off = runDirect(grid);

    for (const SimMetrics &m : off) {
        std::uint64_t attr_sum = 0;
        for (unsigned c = 0; c < kNumMissCauses; ++c) {
            const std::string path =
                std::string("missAttribution.") +
                missCauseName(static_cast<MissCause>(c));
            check(m.stats.has(path), "registry path missing: " + path);
            if (m.stats.has(path))
                attr_sum += m.stats.value(path);
        }
        check(attr_sum == 0,
              "attribution counted misses while disabled");
    }

    // ---- Pass 2: trace + time-series + attribution all on. ----
    const std::string trace_path = "obs_overhead_check.trace.json";
    const std::string ts_path = "obs_overhead_check.timeseries.csv";
    ocfg.tracePath = trace_path;
    ocfg.timeseriesPath = ts_path;
    ocfg.intervalInsts = 50'000;
    ocfg.traceCapacity = 1 << 16; // Bound the JSON; exercises dropping.
    const std::vector<SimMetrics> on = runDirect(grid);

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::string who = grid[i].workload + "/" +
                                prefetcherName(grid[i].prefetcher);
        check(off[i].cycles == on[i].cycles,
              who + ": cycles drifted with obs on");
        check(off[i].instructions == on[i].instructions,
              who + ": instructions drifted with obs on");

        // Every architectural counter must match; only the
        // missAttribution subtree is allowed to change.
        check(off[i].stats.size() == on[i].stats.size(),
              who + ": registry shape drifted with obs on");
        for (const StatsSnapshot::Entry &e : off[i].stats.entries()) {
            if (isAttributionPath(e.first))
                continue;
            check(on[i].stats.has(e.first) &&
                      on[i].stats.value(e.first) == e.second,
                  who + ": stat drifted with obs on: " + e.first);
        }

        // The partition invariant: cause classes sum to exactly the
        // L1-I demand misses of the measurement phase.
        std::uint64_t attr_sum = 0;
        for (unsigned c = 0; c < kNumMissCauses; ++c) {
            attr_sum += on[i].stats.value(
                std::string("missAttribution.") +
                missCauseName(static_cast<MissCause>(c)));
        }
        const std::uint64_t misses =
            on[i].stats.value("l1i.demand_misses");
        check(attr_sum == misses,
              who + ": attribution sum " + std::to_string(attr_sum) +
                  " != l1i demand misses " + std::to_string(misses));
        check(on[i].stats.value("missAttribution.wrong_path") == 0,
              who + ": wrong_path must be structurally zero");
        check(misses > 0, who + ": expected a nonzero miss count");
    }

    // ---- Writers. ----
    obs::Collector::writeOutputs();

    const std::string trace = readFile(trace_path);
    check(!trace.empty(), "trace JSON missing or empty");
    check(jsonBalanced(trace), "trace JSON is structurally unbalanced");
    check(trace.find("\"traceEvents\"") != std::string::npos,
          "trace JSON lacks traceEvents");
    check(trace.find("\"process_name\"") != std::string::npos,
          "trace JSON lacks process_name metadata");
    check(trace.find("\"thread_name\"") != std::string::npos,
          "trace JSON lacks thread_name metadata");
    check(countOccurrences(trace, "\"ph\":\"X\"") > 0,
          "trace JSON has no span events");
    check(countOccurrences(trace, "\"ph\":\"i\"") > 0,
          "trace JSON has no instant events");

    const std::string csv = readFile(ts_path);
    std::istringstream lines(csv);
    std::string line;
    check(bool(std::getline(lines, line)), "time-series CSV is empty");
    check(line == "run,label,interval_insts,phase,insts,cycles,"
                  "d_insts,d_cycles,d_l1i_accesses,d_l1i_misses,"
                  "d_dram_bytes,d_metadata_bytes,ipc,l1i_mpki",
          "time-series CSV header drifted: " + line);
    std::size_t data_rows = 0;
    bool saw_measure = false, saw_warmup = false;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        ++data_rows;
        check(countOccurrences(line, ",") == 13,
              "malformed time-series row: " + line);
        // No real front end misses once per instruction; a larger
        // rate means a row's deltas wrapped around.
        const double mpki = std::atof(
            line.substr(line.find_last_of(',') + 1).c_str());
        check(mpki <= 1000.0,
              "time-series row with l1i_mpki above 1000: " + line);
        if (line.find(",measure,") != std::string::npos)
            saw_measure = true;
        if (line.find(",warmup,") != std::string::npos)
            saw_warmup = true;
    }
    // 450k insts at 50k per sample: >= 9 rows per run, two runs.
    check(data_rows >= 2 * 9, "too few time-series rows");
    check(saw_warmup && saw_measure,
          "time-series must cover both warmup and measurement");
    check(csv.find("caddy/") != std::string::npos,
          "time-series rows lack run labels");

    // ---- Pass 3: multi-tenant configs, request spans on. ----
    ocfg = obs::ObsConfig{};
    const std::vector<SimConfig> mt_grid = {mtConfig(false),
                                            mtConfig(true)};
    const std::vector<SimMetrics> mt_off = runMt(mt_grid);
    ocfg.spans = true;
    ocfg.spanReservoir = 8;
    const std::vector<SimMetrics> mt_on = runMt(mt_grid);
    ocfg = obs::ObsConfig{};

    for (std::size_t i = 0; i < mt_grid.size(); ++i) {
        const std::string who = i == 0 ? "mt/caddy+gin"
                                       : "mt/caddy+scenario+gin";
        check(mt_off[i].cycles == mt_on[i].cycles,
              who + ": cycles drifted with spans on");
        check(mt_off[i].instructions == mt_on[i].instructions,
              who + ": instructions drifted with spans on");
        check(mt_off[i].stats.size() == mt_on[i].stats.size(),
              who + ": registry shape drifted with spans on");
        for (const StatsSnapshot::Entry &e : mt_off[i].stats.entries()) {
            if (isAttributionPath(e.first))
                continue;
            check(mt_on[i].stats.has(e.first) &&
                      mt_on[i].stats.value(e.first) == e.second,
                  who + ": stat drifted with spans on: " + e.first);
        }
        check(!mt_off[i].tailAttribution,
              who + ": tail attribution present with spans off");
    }

    // The scenario run must carry a populated tail-attribution
    // roll-up whose in-span/outside split partitions the scenario
    // core's (core 1's) own measurement deltas exactly.
    check(!mt_on[0].tailAttribution,
          "mt/caddy+gin: tail attribution without a scenario tenant");
    check(bool(mt_on[1].tailAttribution),
          "mt/caddy+scenario+gin: tail attribution missing");
    if (mt_on[1].tailAttribution) {
        const obs::TailAttribution &tail = *mt_on[1].tailAttribution;
        const StatsSnapshot &stats = mt_on[1].stats;
        check(tail.spansRecorded > 0, "mt scenario recorded no spans");
        check(tail.groups.size() == 1 &&
                  tail.groups[0].completed == tail.spansRecorded,
              "mt scenario group bookkeeping is inconsistent");
        for (const std::string &broken :
             hpbench::brokenSpanPartitions(stats, tail, "core1."))
            check(false, "span partition broke for core1 " + broken);
    }

    std::fprintf(stderr, "obs_overhead_check: %s\n",
                 g_ok ? "OK" : "FAILED");
    return g_ok ? 0 : 1;
}
