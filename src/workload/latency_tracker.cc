#include "workload/latency_tracker.hh"

#include <algorithm>
#include <cmath>

namespace hp
{

std::uint64_t
latencyPercentile(std::vector<std::uint64_t> samples, double q)
{
    if (samples.empty())
        return 0;
    const std::size_t n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * double(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    auto nth = samples.begin() + (rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

void
mergeLatency(LatencyReport &into, const LatencyReport &w)
{
    into.generated += w.generated;
    into.completed += w.completed;
    into.dropped += w.dropped;
    into.latencyCycles += w.latencyCycles;
    into.serviceCycles += w.serviceCycles;
    into.queueDepthSum += w.queueDepthSum;
    into.queueDepthMax = std::max(into.queueDepthMax, w.queueDepthMax);
    into.latencySamples.insert(into.latencySamples.end(),
                               w.latencySamples.begin(),
                               w.latencySamples.end());
    into.serviceSamples.insert(into.serviceSamples.end(),
                               w.serviceSamples.begin(),
                               w.serviceSamples.end());
}

void
LatencyTracker::onGenerated(std::uint64_t arrival_cycle)
{
    pendingArrivals_.push_back(arrival_cycle);
    ++generated_;
}

void
LatencyTracker::onBegin(std::uint64_t cycle, bool detailed)
{
    if (pendingArrivals_.empty())
        return; // defensive: a marker with no scheduled arrival
    curArrival_ = pendingArrivals_.front();
    pendingArrivals_.pop_front();
    curBegin_ = cycle;
    beganDetailed_ = detailed;
    inFlight_ = true;
}

CompletionInfo
LatencyTracker::onEnd(std::uint64_t cycle, bool detailed)
{
    if (!inFlight_)
        return {};
    inFlight_ = false;
    const std::uint64_t arrival = curArrival_;

    // Prune requests already finished by this arrival instant; what
    // remains of the FIFO is the queue ahead of this request.
    while (!finishes_.empty() && finishes_.front() <= arrival)
        finishes_.pop_front();

    if (!beganDetailed_ || !detailed || cycle < curBegin_) {
        // The span crosses a fast-forward segment (synthetic clock):
        // no valid service time. Drop it and restart the recurrence
        // at this arrival so later latencies stay meaningful.
        ++dropped_;
        serverFree_ = std::max(serverFree_, arrival);
        return {};
    }

    const std::uint64_t service = cycle - curBegin_;
    const std::uint64_t start = std::max(arrival, serverFree_);
    const std::uint64_t finish = start + service;
    const std::uint64_t latency = finish - arrival;
    const std::uint64_t depth = finishes_.size();

    serverFree_ = finish;
    finishes_.push_back(finish);

    ++completed_;
    latencyCycles_ += latency;
    serviceCycles_ += service;
    queueDepthSum_ += depth;

    if (recording_) {
        latencySamples_.push_back(latency);
        serviceSamples_.push_back(service);
        recordedQueueMax_ = std::max(recordedQueueMax_, depth);
    }

    return {true, latency, service, latency - service};
}

void
LatencyTracker::beginRecording()
{
    recording_ = true;
    latencySamples_.clear();
    serviceSamples_.clear();
    recordedQueueMax_ = 0;
}

void
LatencyTracker::registerStats(StatsRegistry &reg) const
{
    reg.add("latency.generated", [this] { return generated_; });
    reg.add("latency.completed", [this] { return completed_; });
    reg.add("latency.dropped", [this] { return dropped_; });
    reg.add("latency.latency_cycles",
            [this] { return latencyCycles_; });
    reg.add("latency.service_cycles",
            [this] { return serviceCycles_; });
    reg.add("latency.queue_depth_sum",
            [this] { return queueDepthSum_; });
}

LatencyReport
LatencyTracker::report(const StatsSnapshot &delta) const
{
    LatencyReport rep;
    rep.generated = delta.value("latency.generated");
    rep.completed = delta.value("latency.completed");
    rep.dropped = delta.value("latency.dropped");
    rep.latencyCycles = delta.value("latency.latency_cycles");
    rep.serviceCycles = delta.value("latency.service_cycles");
    rep.queueDepthSum = delta.value("latency.queue_depth_sum");
    rep.queueDepthMax = recordedQueueMax_;
    rep.latencySamples = latencySamples_;
    rep.serviceSamples = serviceSamples_;
    return rep;
}

} // namespace hp
