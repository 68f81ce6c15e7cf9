#include "sim/run_report.hh"

#include <atomic>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/miss_attribution.hh"
#include "obs/request_span.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "workload/latency_tracker.hh"

namespace hp
{

namespace
{

struct RecordedRun
{
    std::string workload;
    std::string prefetcher;
    std::string configKey;
    SimMetrics metrics;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<RecordedRun> &
recordedRuns()
{
    static std::vector<RecordedRun> runs;
    return runs;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
fmtDouble(double v)
{
    std::ostringstream out;
    out.precision(17);
    out << v;
    return out.str();
}

/**
 * Renders the miss-attribution summary for one run: the per-class
 * measurement-phase miss counts plus their sum and the L1-I demand
 * misses they partition. All zeros unless attribution ran.
 */
void
appendAttribution(std::ostringstream &out, const StatsSnapshot &stats)
{
    out << "      \"attribution\": {\n";
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kNumMissCauses; ++i) {
        const std::string path = std::string("missAttribution.") +
            missCauseName(static_cast<MissCause>(i));
        const std::uint64_t v = stats.has(path) ? stats.value(path) : 0;
        total += v;
        out << "        \""
            << missCauseName(static_cast<MissCause>(i)) << "\": " << v
            << ",\n";
    }
    const std::uint64_t misses = stats.has("l1i.demand_misses")
        ? stats.value("l1i.demand_misses") : 0;
    out << "        \"total\": " << total << ",\n"
        << "        \"l1i_demand_misses\": " << misses << "\n"
        << "      },\n";
}

/**
 * Renders the sampled-simulation block for one run: the sampling
 * parameters, the per-interval results, and the IPC confidence
 * interval. Present only on runs produced by runSampled().
 */
void
appendSampling(std::ostringstream &out, const SamplingInfo &s)
{
    out << "      \"sampling\": {\n"
        << "        \"intervals\": " << s.config.intervals << ",\n"
        << "        \"window_insts\": " << s.config.windowInsts
        << ",\n"
        << "        \"detail_warmup_insts\": "
        << s.config.detailWarmupInsts << ",\n"
        << "        \"seed\": " << s.config.seed << ",\n"
        << "        \"detailed_insts\": " << s.detailedInsts << ",\n"
        << "        \"scale_factor\": " << fmtDouble(s.scaleFactor)
        << ",\n"
        << "        \"ipc_mean\": " << fmtDouble(s.ipcMean) << ",\n"
        << "        \"ipc_stddev\": " << fmtDouble(s.ipcStddev)
        << ",\n"
        << "        \"ipc_ci95\": " << fmtDouble(s.ipcCi95) << ",\n"
        << "        \"interval_results\": [";
    bool first = true;
    for (const SamplingInfo::Interval &iv : s.intervals) {
        out << (first ? "" : ",") << "\n          {\"start\": "
            << iv.startInst << ", \"instructions\": "
            << iv.instructions << ", \"cycles\": " << iv.cycles
            << ", \"ipc\": " << fmtDouble(iv.ipc) << "}";
        first = false;
    }
    out << "\n        ]\n      },\n";
}

/**
 * Renders the per-request latency block for one run: completion
 * counts, tail-latency percentiles, and queue-depth statistics.
 * Present only on scenario runs.
 */
void
appendLatency(std::ostringstream &out, const LatencyReport &l)
{
    out << "      \"latency\": {\n"
        << "        \"generated\": " << l.generated << ",\n"
        << "        \"completed\": " << l.completed << ",\n"
        << "        \"dropped\": " << l.dropped << ",\n"
        << "        \"mean\": " << fmtDouble(l.meanLatency()) << ",\n"
        << "        \"p50\": " << l.p50() << ",\n"
        << "        \"p99\": " << l.p99() << ",\n"
        << "        \"p999\": " << l.p999() << ",\n"
        << "        \"service_p50\": "
        << latencyPercentile(l.serviceSamples, 0.50) << ",\n"
        << "        \"service_p99\": "
        << latencyPercentile(l.serviceSamples, 0.99) << ",\n"
        << "        \"queue_depth_mean\": "
        << fmtDouble(l.queueDepthMean()) << ",\n"
        << "        \"queue_depth_max\": " << l.queueDepthMax << "\n"
        << "      },\n";
}

/** One SpanCounters object on a single line, keyed by the span
 *  table in table order. */
void
appendSpanCounters(std::ostringstream &out, const obs::SpanCounters &c)
{
    const auto &table = obs::spanCounterTable();
    out << '{';
    for (std::size_t i = 0; i < table.size(); ++i)
        out << (i ? ", " : "") << '"' << table[i].key << "\": " << c[i];
    out << '}';
}

/** One cohort (count + cycle sums + its counter deltas). */
void
appendSpanCohort(std::ostringstream &out, const obs::SpanCohort &c,
                 const char *indent)
{
    out << "{\n"
        << indent << "  \"count\": " << c.count << ",\n"
        << indent << "  \"latency_sum\": " << c.latencySum << ",\n"
        << indent << "  \"service_sum\": " << c.serviceSum << ",\n"
        << indent << "  \"queueing_sum\": " << c.queueingSum << ",\n"
        << indent << "  \"deltas\": ";
    appendSpanCounters(out, c.deltas);
    out << "\n" << indent << "}";
}

/**
 * Renders the tail-attribution block for one run: the in-span/outside
 * partition of the measurement delta plus, per request chain, the
 * p999 (worst) cohort and the equally sized median cohort it is
 * contrasted against. Present only on scenario runs with spans on.
 */
void
appendTailAttribution(std::ostringstream &out,
                      const obs::TailAttribution &t)
{
    out << "      \"tailAttribution\": {\n"
        << "        \"top_k\": " << t.topK << ",\n"
        << "        \"spans_recorded\": " << t.spansRecorded << ",\n"
        << "        \"spans_dropped\": " << t.spansDropped << ",\n"
        << "        \"in_span\": ";
    appendSpanCounters(out, t.inSpan);
    out << ",\n        \"outside\": ";
    appendSpanCounters(out, t.outside);
    out << ",\n        \"groups\": [";
    bool first = true;
    for (const obs::TailGroup &g : t.groups) {
        out << (first ? "" : ",") << "\n          {\n"
            << "            \"chain\": \"" << jsonEscape(g.name)
            << "\",\n"
            << "            \"services\": \"" << jsonEscape(g.services)
            << "\",\n"
            << "            \"completed\": " << g.completed << ",\n"
            << "            \"worst_latency\": "
            << (g.worst.empty() ? 0 : g.worst.front().latency) << ",\n"
            << "            \"tail_cohort\": ";
        appendSpanCohort(out, g.tailCohort(), "            ");
        out << ",\n            \"median_cohort\": ";
        appendSpanCohort(out, g.medianCohort(), "            ");
        out << "\n          }";
        first = false;
    }
    out << "\n        ]\n      },\n";
}

} // namespace

void
RunReportLog::enable()
{
    g_enabled.store(true, std::memory_order_release);
}

bool
RunReportLog::enabled()
{
    return g_enabled.load(std::memory_order_acquire);
}

void
RunReportLog::record(const SimConfig &config, const SimMetrics &m)
{
    if (!enabled())
        return;
    RecordedRun run;
    run.workload = config.workload;
    run.prefetcher = prefetcherName(config.prefetcher);
    run.configKey = ExperimentRunner::configKey(config);
    run.metrics = m;
    std::lock_guard<std::mutex> lock(g_mutex);
    recordedRuns().push_back(std::move(run));
}

std::size_t
RunReportLog::size()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return recordedRuns().size();
}

std::string
RunReportLog::documentJson()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::ostringstream out;
    out << "{\n  \"schema\": \"hp-stats-report-v1\",\n  \"runs\": [";
    bool first = true;
    for (const RecordedRun &run : recordedRuns()) {
        const SimMetrics &m = run.metrics;
        out << (first ? "" : ",") << "\n    {\n"
            << "      \"workload\": \"" << jsonEscape(run.workload)
            << "\",\n"
            << "      \"prefetcher\": \"" << jsonEscape(run.prefetcher)
            << "\",\n"
            << "      \"config_key\": \"" << jsonEscape(run.configKey)
            << "\",\n"
            << "      \"stats\": "
            << m.stats.toJson(6).substr(6) << ",\n";
        appendAttribution(out, m.stats);
        const PrefetchStats ext = prefetchStats(m.stats, "ext");
        if (m.sampling)
            appendSampling(out, *m.sampling);
        if (m.latency)
            appendLatency(out, *m.latency);
        if (m.tailAttribution)
            appendTailAttribution(out, *m.tailAttribution);
        out << "      \"derived\": {\n"
            << "        \"ipc\": " << fmtDouble(m.ipc()) << ",\n"
            << "        \"ext_accuracy\": "
            << fmtDouble(ext.accuracy()) << ",\n"
            << "        \"ext_late_fraction\": "
            << fmtDouble(ext.lateFraction()) << ",\n"
            << "        \"ext_avg_distance\": "
            << fmtDouble(meanUsefulDistance(m.stats)) << ",\n"
            << "        \"data_dram_bytes\": " << m.dataDramBytes
            << ",\n"
            << "        \"total_dram_bytes\": " << m.totalDramBytes()
            << "\n      }\n    }";
        first = false;
    }
    out << "\n  ]\n}\n";
    return out.str();
}

void
RunReportLog::clear()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    recordedRuns().clear();
}

} // namespace hp
