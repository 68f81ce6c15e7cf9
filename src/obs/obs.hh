/**
 * @file
 * Process-wide observability configuration and output collection.
 *
 * Observability is opt-in and process-global, like the run-report log:
 * it is configured once (from the HP_TRACE_JSON / HP_TIMESERIES /
 * HP_MISS_ATTR / HP_SPANS / HP_SPAN_TOPK / HP_TS_INTERVAL /
 * HP_TRACE_CAP environment variables, or from the `--trace-json` /
 * `--timeseries` / `--spans` bench flags) before any simulation
 * starts. Every Simulator consults obs::config() at
 * construction; when something is enabled it wires an EventSink, the
 * miss-attribution tracker, and/or an IntervalSampler into its
 * components, and flushes what it collected into obs::collector() when
 * the run finishes. The collector is thread-safe (executor workers
 * flush concurrently) and writes the combined Perfetto trace and
 * time-series CSV once, at scope exit of the bench harness.
 *
 * Everything here is observational: enabling it never changes
 * simulated behaviour, and with everything disabled (the default) the
 * simulator's outputs are bit-identical and its hot paths pay at most
 * a few null checks (enforced by the obs_overhead_check ctest).
 */

#ifndef HP_OBS_OBS_HH
#define HP_OBS_OBS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hh"
#include "obs/interval_sampler.hh"

namespace hp::obs
{

struct ObsConfig
{
    /** Perfetto/Chrome trace-event JSON output path ("" = off). */
    std::string tracePath;

    /** Interval time-series CSV output path ("" = off). */
    std::string timeseriesPath;

    /** Attribute every L1-I demand miss to a cause class. Forced on
     *  whenever tracing or time-series sampling is on. */
    bool attribution = false;

    /** Track request spans and tail attribution (scenario runs). */
    bool spans = false;

    /** Per-chain reservoir bound (top-K worst + uniform sample). */
    std::size_t spanReservoir = 64;

    /** Instructions per time-series sample. */
    std::uint64_t intervalInsts = 100'000;

    /** Per-run event-ring capacity (oldest events drop beyond it). */
    std::size_t traceCapacity = 1 << 20;

    bool traceEnabled() const { return !tracePath.empty(); }
    bool timeseriesEnabled() const { return !timeseriesPath.empty(); }
    bool spansEnabled() const { return spans; }
    bool
    attributionEnabled() const
    {
        // Spans snapshot the miss-attribution counters at every
        // request edge, so they force the cause tracker on too.
        return attribution || spans || traceEnabled()
            || timeseriesEnabled();
    }
};

/**
 * A fresh ObsConfig read from the HP_* environment. A numeric option
 * that is not plain decimal digits, or is above its maximum, is fatal
 * with a diagnostic naming the variable.
 */
ObsConfig configFromEnv();

/**
 * The mutable global config. First access seeds it from the
 * environment; bench flags overwrite fields afterwards. Must not be
 * mutated once simulations are running (the obs tests reset it
 * between scenarios, which is safe because they run serially).
 */
ObsConfig &config();

/** One finished run's observability payload. */
struct RunCapture
{
    std::string label; ///< "<workload>/<prefetcher>".
    std::vector<TraceEvent> events;
    std::uint64_t eventsDropped = 0;
    std::uint64_t tsInterval = 0;
    std::vector<SampleRow> samples;
};

/** Thread-safe sink for finished runs plus the output writers. */
class Collector
{
  public:
    /** Appends one run's capture (assigns its trace pid). */
    static void addRun(RunCapture capture);

    static std::size_t runCount();

    /**
     * Writes the configured outputs (Perfetto JSON and/or CSV) over
     * every collected run. Idempotent; a second call after new runs
     * arrived rewrites the files. Fatal on I/O failure.
     */
    static void writeOutputs();

    /** Drops collected runs (tests). */
    static void clear();
};

/** Writes the interval time-series CSV for @p runs to @p path. */
void writeTimeseriesCsv(const std::string &path,
                        const std::vector<RunCapture> &runs);

} // namespace hp::obs

#endif // HP_OBS_OBS_HH
