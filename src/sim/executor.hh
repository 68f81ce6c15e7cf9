/**
 * @file
 * Parallel experiment executor.
 *
 * Every grid point of the evaluation pipeline (workload x prefetcher x
 * knob sweep) is an independent simulation, so the bench harnesses
 * submit their whole grid up front and a pool of workers drains it.
 * Deduplication lives in the ExperimentRunner's result cache (a
 * OnceMap keyed by measurementConfig), so a config shared by several
 * grids — the FDIP baseline, most commonly — is simulated exactly once
 * no matter how many threads request it, and results collected in
 * submission order are bit-identical to a serial run.
 *
 * The worker count defaults to std::thread::hardware_concurrency(),
 * overridable with the HP_JOBS environment variable.
 */

#ifndef HP_SIM_EXECUTOR_HH
#define HP_SIM_EXECUTOR_HH

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

namespace hp
{

/** The two futures of a prefetcher-vs-FDIP-baseline pair. */
struct PairFutures
{
    std::shared_future<SimMetrics> run;
    std::shared_future<SimMetrics> base;

    /** Blocks on both halves and computes the paired metrics. */
    RunPair collect() const { return makeRunPair(run.get(), base.get()); }
};

/** A fixed-size thread pool draining deduplicated simulation jobs. */
class Executor
{
  public:
    /** @p threads workers; 0 means defaultThreads(). */
    explicit Executor(unsigned threads = 0);
    ~Executor();

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /** HP_JOBS if set and positive, else hardware_concurrency(). */
    static unsigned defaultThreads();

    /** The process-wide executor used by ExperimentRunner::runPair. */
    static Executor &global();

    unsigned threads() const { return unsigned(workers_.size()); }

    /**
     * Enqueues @p config (unless already cached or in flight) and
     * returns the future of its metrics. Never blocks on the
     * simulation itself.
     */
    std::shared_future<SimMetrics> submit(const SimConfig &config);

    /** Submits @p config and its FDIP-only baseline twin. */
    PairFutures submitPair(const SimConfig &config);

    /**
     * Submits every config up front, then collects in input order:
     * results are deterministic and identical to running the same
     * list serially.
     */
    std::vector<SimMetrics> runAll(const std::vector<SimConfig> &configs);

    /** runAll for pairs: every config plus its FDIP baseline. */
    std::vector<RunPair> runPairs(const std::vector<SimConfig> &configs);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    /** One move-only task per run, off the simulation path. */
    std::deque<std::packaged_task<SimMetrics()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace hp

#endif // HP_SIM_EXECUTOR_HH
