/**
 * @file
 * Per-request latency accounting for scenario runs.
 *
 * The simulator models one core executing requests back to back, so
 * request *service* time is directly measurable as the commit-cycle
 * span between a request's RequestBegin and RequestEnd markers. The
 * scenario layer is open-loop: arrivals come from a seeded
 * ArrivalProcess on its own clock, independent of how fast the server
 * drains them. The tracker composes the two with the Lindley
 * recurrence of a single-server FCFS queue:
 *
 *     start_i   = max(arrival_i, finish_{i-1})
 *     finish_i  = start_i + service_i
 *     latency_i = finish_i - arrival_i
 *
 * evaluated entirely at commit time (when service_i is known), in
 * arrival-clock units. Queue depth at arrival_i is the number of
 * earlier requests not yet finished then. Requests whose begin or end
 * falls in a fast-forward segment have no meaningful cycle span; they
 * are dropped (counted) and the recurrence resets to their arrival.
 *
 * Percentiles are exact nearest-rank over the recorded (measurement
 * phase) completion latencies — small enough at simulation scale that
 * no sketch is needed, and exactly testable against a sort.
 */

#ifndef HP_WORKLOAD_LATENCY_TRACKER_HH
#define HP_WORKLOAD_LATENCY_TRACKER_HH

#include <cstdint>
#include <vector>

#include "stats/registry.hh"
#include "util/ring_buffer.hh"
#include "util/serialize.hh"

namespace hp
{

/**
 * Nearest-rank percentile of @p samples (q in (0, 1]): the smallest
 * element with at least ceil(q * n) samples at or below it. Exact for
 * ties and single-element inputs; 0 for an empty set.
 */
std::uint64_t latencyPercentile(std::vector<std::uint64_t> samples,
                                double q);

/** Latency results of one measurement phase (attached to SimMetrics). */
struct LatencyReport
{
    /** Requests scheduled (arrival drawn) during the phase. */
    std::uint64_t generated = 0;

    /** Requests completed with a valid latency during the phase. */
    std::uint64_t completed = 0;

    /** Requests discarded because a fast-forward segment swallowed
     *  their begin or end (sampled runs only). */
    std::uint64_t dropped = 0;

    std::uint64_t latencyCycles = 0; ///< Sum over completions.
    std::uint64_t serviceCycles = 0; ///< Sum over completions.

    /** Sum / max of the queue depth seen at each completion's
     *  arrival instant. */
    std::uint64_t queueDepthSum = 0;
    std::uint64_t queueDepthMax = 0;

    /** Per-completion latencies / service times, completion order. */
    std::vector<std::uint64_t> latencySamples;
    std::vector<std::uint64_t> serviceSamples;

    std::uint64_t p50() const { return latencyPercentile(latencySamples, 0.50); }
    std::uint64_t p99() const { return latencyPercentile(latencySamples, 0.99); }
    std::uint64_t p999() const { return latencyPercentile(latencySamples, 0.999); }

    double
    meanLatency() const
    {
        return latencySamples.empty()
            ? 0.0
            : double(latencyCycles) / double(completed ? completed : 1);
    }

    double
    queueDepthMean() const
    {
        return completed ? double(queueDepthSum) / double(completed)
                         : 0.0;
    }
};

/** Merges window @p w into @p into (sampled-run aggregation). */
void mergeLatency(LatencyReport &into, const LatencyReport &w);

/** What onEnd resolved for one request (request-span consumers). */
struct CompletionInfo
{
    /** False when the request was dropped (fast-forward overlap). */
    bool completed = false;
    std::uint64_t latency = 0;  ///< Lindley latency (valid if completed).
    std::uint64_t service = 0;  ///< Commit-measured service cycles.
    std::uint64_t queueing = 0; ///< latency - service.
};

/** The runtime tracker owned by the ScenarioEngine. */
class LatencyTracker
{
  public:
    /** Generation side: a request's arrival cycle was drawn. FIFO
     *  order must match the commit-side begin/end order. */
    void onGenerated(std::uint64_t arrival_cycle);

    /** Commit side: the request's first instruction committed at
     *  simulator cycle @p cycle; @p detailed is false in FF mode. */
    void onBegin(std::uint64_t cycle, bool detailed);

    /** Commit side: the request's final return committed. Returns the
     *  resolved timing split (completed=false on a drop). */
    CompletionInfo onEnd(std::uint64_t cycle, bool detailed);

    /** Starts recording per-completion samples (measurement begin);
     *  clears previously recorded samples, not the counters. */
    void beginRecording();

    /** Registers the monotone counters under "latency.*". */
    void registerStats(StatsRegistry &reg) const;

    /**
     * Builds the phase report: counters come from @p delta (the
     * measurement-phase registry delta, so warmup completions are
     * excluded), samples from the recorded vectors.
     */
    LatencyReport report(const StatsSnapshot &delta) const;

    /** Serializes/restores the queue state (checkpointing). Recorded
     *  samples are pre-measurement empty by construction. */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, pendingArrivals_);
        io(ar, inFlight_);
        io(ar, beganDetailed_);
        io(ar, curArrival_);
        io(ar, curBegin_);
        io(ar, serverFree_);
        io(ar, finishes_);
    }

  private:
    /** Arrival cycles of requests generated but not yet begun. */
    RingBuffer<std::uint64_t> pendingArrivals_;

    bool inFlight_ = false;
    bool beganDetailed_ = false;
    std::uint64_t curArrival_ = 0;
    std::uint64_t curBegin_ = 0;

    /** Lindley recurrence state: when the server frees up. */
    std::uint64_t serverFree_ = 0;

    /** Finish times of completed requests, pruned at each arrival
     *  (the queue-depth probe). */
    RingBuffer<std::uint64_t> finishes_;

    // Monotone counters (registry; snapshot-delta gives the phase).
    std::uint64_t generated_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t latencyCycles_ = 0;
    std::uint64_t serviceCycles_ = 0;
    std::uint64_t queueDepthSum_ = 0;

    // Recorded (measurement-phase) samples.
    bool recording_ = false;
    std::vector<std::uint64_t> latencySamples_;
    std::vector<std::uint64_t> serviceSamples_;
    std::uint64_t recordedQueueMax_ = 0;
};

} // namespace hp

#endif // HP_WORKLOAD_LATENCY_TRACKER_HH
