#include "sim/executor.hh"

#include "sim/runtime_options.hh"
#include "util/decimal.hh"
#include "util/logging.hh"

namespace hp
{

unsigned
Executor::defaultThreads()
{
    const char *env = runtimeEnv("HP_JOBS");
    if (env && *env) {
        std::uint64_t jobs = 0;
        std::string why = "must be at least 1"; // kept when it parses
        if (parseDecimal(env, 1024, &jobs, &why) && jobs > 0)
            return unsigned(jobs);
        warn(std::string("ignoring HP_JOBS=") + env + ": " + why +
             "; using the hardware concurrency");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

Executor &
Executor::global()
{
    static Executor executor;
    return executor;
}

Executor::Executor(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
Executor::workerLoop()
{
    while (true) {
        std::packaged_task<SimMetrics()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

std::shared_future<SimMetrics>
Executor::submit(const SimConfig &config)
{
    std::packaged_task<SimMetrics()> task;
    std::shared_future<SimMetrics> future =
        detail::acquireSimulation(config, &task);
    if (task.valid()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(std::move(task));
        }
        cv_.notify_one();
    }
    return future;
}

PairFutures
Executor::submitPair(const SimConfig &config)
{
    PairFutures futures;
    futures.run = submit(config);
    futures.base = submit(fdipBaseline(config));
    return futures;
}

std::vector<SimMetrics>
Executor::runAll(const std::vector<SimConfig> &configs)
{
    std::vector<std::shared_future<SimMetrics>> futures;
    futures.reserve(configs.size());
    for (const SimConfig &config : configs)
        futures.push_back(submit(config));

    std::vector<SimMetrics> results;
    results.reserve(futures.size());
    for (const auto &future : futures)
        results.push_back(future.get());
    return results;
}

std::vector<RunPair>
Executor::runPairs(const std::vector<SimConfig> &configs)
{
    std::vector<PairFutures> futures;
    futures.reserve(configs.size());
    for (const SimConfig &config : configs)
        futures.push_back(submitPair(config));

    std::vector<RunPair> results;
    results.reserve(futures.size());
    for (const PairFutures &future : futures)
        results.push_back(future.collect());
    return results;
}

} // namespace hp
