/**
 * @file
 * SMARTS-style sampled simulation over warmed checkpoints.
 *
 * Instead of running the whole measurement phase in detail, a sampled
 * run executes K short detailed windows spread over it. A single
 * *scout* simulator restored from the shared warmup checkpoint
 * (acquireWarmedCheckpoint) fast-forwards the measurement stream
 * once; just before each window it is forked into an immutable
 * mid-stream Checkpoint, and a reused *window* simulator restored
 * from that blob runs a short detailed warmup — re-establishing the
 * timing state fast-forward cannot model (MSHRs, FTQ, in-flight
 * fills) — then measures one window. With HP_CKPT_DIR set the
 * post-warmup state is spilled to disk, so a warm rerun pays only the
 * windows themselves. Per-interval counter deltas are summed and
 * scaled to full-run magnitude; per-interval CPIs yield a mean and a
 * Student-t 95% confidence interval, mapped back to IPC via the delta
 * method (SamplingInfo). CPI — not IPC — is the sampled quantity
 * because the aggregate cycles/instructions ratio is the equal-weight
 * mean of per-window CPIs, while a mean of per-window IPCs would be
 * biased high (Jensen's inequality).
 *
 * Because every interval's window runs from an immutable checkpoint
 * blob, interval replay is bit-identical regardless of how many
 * intervals run, in which order, or on which threads.
 *
 * Correctness bar: with sampling disabled every result is bit-identical
 * to the unsampled code path; with sampling enabled the sampled IPC of
 * the paper workloads must land within its own reported CI of the full
 * run (bench/micro_sampling_accuracy.cc enforces both).
 */

#ifndef HP_SIM_SAMPLING_HH
#define HP_SIM_SAMPLING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/metrics.hh"

namespace hp
{

/** Result breakdown of one sampled run (attached to SimMetrics). */
struct SamplingInfo
{
    SampleConfig config;

    struct Interval
    {
        /** Window start, in instructions past the warmup boundary. */
        std::uint64_t startInst = 0;
        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        double ipc = 0.0;
    };

    std::vector<Interval> intervals;

    /** 1 / mean(per-window CPI) — the unbiased IPC estimate. */
    double ipcMean = 0.0;
    /** Per-window CPI stddev / ci95 mapped to IPC units with the
     *  delta method (divide by cpiMean^2); ci95 is the half-width of
     *  the 95% CI on ipcMean (0 when < 2 windows). */
    double ipcStddev = 0.0;
    double ipcCi95 = 0.0;

    /** Instructions simulated in detail (windows + their warmups). */
    std::uint64_t detailedInsts = 0;

    /** measureInsts / (sum of window instructions): the factor that
     *  extrapolates summed window counters to full-run magnitude. */
    double scaleFactor = 1.0;
};

/** Mean / sample stddev / 95% CI half-width of a sample set. */
struct SampleStats
{
    unsigned n = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double ci95 = 0.0;
};

SampleStats sampleStats(const std::vector<double> &xs);

/** Two-sided 95% Student-t critical value for @p df degrees of
 *  freedom (df >= 1; large df converge to the normal 1.96). */
double tCritical95(unsigned df);

/**
 * Stratified window start points for @p measure_insts instructions:
 * one window per stratum of measure_insts / K, offset inside its
 * stratum by a deterministic hash of (seed, index) when seed != 0 and
 * placed at the stratum start when seed == 0. Starts are clamped so
 * every window fits inside the measurement phase.
 */
std::vector<std::uint64_t>
intervalStarts(std::uint64_t measure_insts, const SampleConfig &sc);

/**
 * Parses "K,W[,U[,S]]" (intervals, window, detailed warmup, seed) —
 * the HP_SAMPLE / --sample=... spec. "0" or "off" disables sampling.
 * @return false with @p error set on a malformed spec.
 */
bool parseSampleSpec(const std::string &spec, SampleConfig *out,
                     std::string *error = nullptr);

/**
 * The process-default SampleConfig applied by defaultConfig():
 * initialized once from HP_SAMPLE (disabled when unset), overridable
 * by setDefaultSampling (the bench --sample flag). Configs built
 * directly — golden-diff tests, unit tests — are unaffected.
 */
const SampleConfig &defaultSampling();
void setDefaultSampling(const SampleConfig &config);

/**
 * Runs @p config as a sampled simulation (config.sample must be
 * enabled): K detailed windows forked from the shared warmup
 * checkpoint, aggregated into one SimMetrics with SimMetrics::sampling
 * attached. Degenerate parameters (windows covering the whole
 * measurement phase, or no measurement phase) fall back to the exact
 * full run, as does a checkpoint restore failure.
 */
SimMetrics runSampled(const SimConfig &config);

/** Dispatch point for the runner: runSampled when config.sample is
 *  enabled, runCheckpointed otherwise. */
SimMetrics runMaybeSampled(const SimConfig &config);

} // namespace hp

#endif // HP_SIM_SAMPLING_HH
