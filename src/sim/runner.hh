/**
 * @file
 * Experiment runner: memoized simulation runs plus the paired
 * run-vs-FDIP-baseline computation every figure needs. Within one
 * process, identical configurations are simulated once — even when
 * requested concurrently from many threads: the result cache is a
 * OnceMap (util/once_map.hh), so every requester of a config blocks
 * on the one in-flight simulation instead of racing or double-running
 * it.
 */

#ifndef HP_SIM_RUNNER_HH
#define HP_SIM_RUNNER_HH

#include <future>
#include <string>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"

namespace hp
{

/** A prefetcher run together with its FDIP-only baseline. */
struct RunPair
{
    SimMetrics run;
    SimMetrics base;
    PairedMetrics paired;
};

/** The FDIP-only twin of @p config (the baseline of every pair). */
SimConfig fdipBaseline(const SimConfig &config);

/**
 * The measurement-equivalence twin of @p config: every field the
 * simulation never reads under this config's prefetcher kind is
 * pinned to its default. Two configs with equal measurementConfig()
 * produce bit-identical SimMetrics, so the experiment cache dedups on
 * it — a sweep over, say, eip.lookahead no longer re-simulates the
 * None/Hierarchical points that never read that knob.
 */
SimConfig measurementConfig(const SimConfig &config);

/** Assembles a RunPair from two finished runs. */
RunPair makeRunPair(SimMetrics run, SimMetrics base);

/** Memoized, thread-safe simulation driver. */
class ExperimentRunner
{
  public:
    /**
     * Runs (or returns the cached result of) @p config. Returns by
     * value: the cache is shared across threads, so handing out
     * references into it would race with concurrent insertions.
     */
    static SimMetrics run(const SimConfig &config);

    /** Runs @p config and its FDIP-only twin; computes paired
     *  metrics. The two runs execute concurrently on the global
     *  executor when it has idle workers. */
    static RunPair runPair(const SimConfig &config);

    /**
     * The config's identity: every field that affects the simulation
     * outcome, printed exactly (doubles in shortest round-trip form),
     * so two configs share a key only if they simulate the same run.
     * configHash hashes it; checkpoint blobs and run reports embed it.
     */
    static std::string configKey(const SimConfig &config);

    /** Number of distinct simulations started so far (finished or
     *  in flight). */
    static std::size_t simulationsRun();
};

namespace detail
{

/**
 * The result cache's future for @p config (OnceMap::acquire). The
 * first requester of a config gets the simulation in @p task and runs
 * it: ExperimentRunner::run inline, Executor::submit on a worker.
 */
std::shared_future<SimMetrics>
acquireSimulation(const SimConfig &config,
                  std::packaged_task<SimMetrics()> *task);

} // namespace detail

/** A SimConfig with the paper's Table 1 defaults for @p workload. */
SimConfig defaultConfig(const std::string &workload,
                        PrefetcherKind kind = PrefetcherKind::None);

} // namespace hp

#endif // HP_SIM_RUNNER_HH
