/**
 * @file
 * Request-scoped observability: spans and tail-latency attribution.
 *
 * A *request span* covers one end-to-end request chain of a scenario
 * run, from the commit of its RequestBegin marker to the commit of its
 * final RequestEnd. At both edges the tracker reads the span table
 * (spanCounterTable) through the core's stats registry: the cause-level
 * counters a tail investigation needs — the six `missAttribution.*`
 * classes (counts and latency cycles), prefetch timeliness (useful vs
 * late, FDIP and Ext separately), I-TLB misses, L1-I demand misses and
 * total miss cycles, context switches, and the core's metadata-port
 * stall cycles — so each completed span carries the exact per-request
 * delta of every one of them, plus the Lindley queueing-vs-service
 * split the latency tracker computed for it.
 *
 * The tracker keeps the accounting bounded: per request chain it
 * retains an exact top-K worst-latency set (min-heap) and a uniform
 * reservoir (Algorithm R, deterministically seeded) that supplies the
 * median cohort for contrast. It also telescopes the snapshots into
 * two running totals — counts and cycles *inside* spans and *outside*
 * them — such that `inSpan + outside` equals the measurement-phase
 * registry delta of every table entry exactly (the partition invariant
 * tail_attribution and obs_overhead_check enforce). Everything here is
 * observational: the tracker only ever reads counters, so enabling it
 * cannot perturb a single architectural number.
 */

#ifndef HP_OBS_REQUEST_SPAN_HH
#define HP_OBS_REQUEST_SPAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_sink.hh"
#include "obs/miss_attribution.hh"
#include "stats/registry.hh"
#include "util/rng.hh"

namespace hp::obs
{

/** Entries of the span table. */
constexpr std::size_t kNumSpanCounters = 2 * kNumMissCauses + 9;

/** One value per span-table entry: a snapshot, a delta or a sum. */
using SpanCounters = std::array<std::uint64_t, kNumSpanCounters>;

/** One span-table entry. */
struct SpanCounterSpec
{
    std::string key;                ///< Key in the tailAttribution block.
    std::vector<std::string> paths; ///< Registry paths it sums.
};

/**
 * The span table, in report order: each `missAttribution.*` class
 * (count, then latency cycles), `fdip`/`ext` useful and late,
 * `itlb.misses`, `l1i.demand_misses`, the four `l1i.miss_cycles_*`
 * summed, `sim.context_switches` and the core's
 * `mt.metadata_arbiter_stall_cycles`. All are monotone.
 */
const std::array<SpanCounterSpec, kNumSpanCounters> &spanCounterTable();

/** Index of the table entry reported as @p key (a panic if none). */
std::size_t spanCounterIndex(const std::string &key);

/** One completed request span (kept in the bounded reservoirs). */
struct RequestSpan
{
    std::uint64_t id = 0;      ///< Completion sequence number.
    std::uint32_t chain = 0;   ///< Request-chain index (markerArg).
    std::uint64_t beginCycle = 0;
    std::uint64_t endCycle = 0;
    std::uint64_t latency = 0;  ///< Lindley latency (queueing+service).
    std::uint64_t service = 0;  ///< Commit-measured service cycles.
    std::uint64_t queueing = 0; ///< latency - service.
    std::uint32_t hops = 0;     ///< Cross-service hand-offs observed.
    SpanCounters deltas{};      ///< End-edge minus begin-edge snapshot.
};

/** Sum of a cohort of spans (tail or median; report side). */
struct SpanCohort
{
    std::uint64_t count = 0;
    std::uint64_t latencySum = 0;
    std::uint64_t serviceSum = 0;
    std::uint64_t queueingSum = 0;
    SpanCounters deltas{};

    void add(const RequestSpan &s);
};

/** Per-chain roll-up: bounded worst set + uniform contrast sample. */
struct TailGroup
{
    std::string name;     ///< Chain name from the scenario spec.
    std::string services; ///< Comma-joined service walk of the chain.
    std::uint64_t completed = 0; ///< Spans recorded for this chain.

    /** Exact top-K by latency, sorted descending (K = topK below). */
    std::vector<RequestSpan> worst;

    /** Uniform reservoir over all completed spans (size <= K). */
    std::vector<RequestSpan> sample;

    /**
     * The worst ceil(completed/1000) spans (at least 1, at most what
     * the reservoir holds): the p999 cohort of this chain.
     */
    SpanCohort tailCohort() const;

    /**
     * An equally sized cohort around the median of the uniform
     * sample — the "typical request" contrast the excess is taken
     * against.
     */
    SpanCohort medianCohort() const;
};

/** The tailAttribution block attached to SimMetrics. */
struct TailAttribution
{
    std::size_t topK = 0; ///< Reservoir bound per chain.

    /** Counter cycles/events that landed inside spans vs between
     *  them; the two exactly partition the measurement delta. */
    SpanCounters inSpan{};
    SpanCounters outside{};

    std::uint64_t spansRecorded = 0;
    std::uint64_t spansDropped = 0; ///< Begin/end in a FF segment.

    std::vector<TailGroup> groups; ///< One per request chain.
};

/**
 * Merges window @p w into @p into (sampled-run aggregation). Like
 * latency, span observations are raw per-window counts, never scaled:
 * totals add, and the per-chain reservoirs re-select top-K (exact)
 * and re-sample the union (deterministic order) under the same bound.
 */
void mergeTailAttribution(TailAttribution &into,
                          const TailAttribution &w);

/** The runtime tracker a scenario-running Simulator owns. */
class RequestSpanTracker
{
  public:
    /**
     * @param registry The core's registry. Every span-table path must
     *        be registered (a panic otherwise); the readers are
     *        resolved here, once, and must outlive the tracker.
     * @param chains One (name, comma-joined services) label per
     *        request chain of the scenario.
     * @param top_k Reservoir bound per chain (>= 1).
     * @param sink Optional event sink for RequestSpan / ChainHandoff
     *        trace events (may be null).
     */
    RequestSpanTracker(
        const StatsRegistry &registry,
        std::vector<std::pair<std::string, std::string>> chains,
        std::size_t top_k, EventSink *sink);

    /**
     * Starts a measurement phase: clears reservoirs, drops any open
     * span, and anchors the telescoping totals at the counters' values
     * now. Until this is called the tracker ignores all begin/end
     * edges.
     */
    void beginRecording();

    /** A RequestBegin marker committed. @p detailed is false under
     *  the fast-forward clock (the span will be dropped). */
    void onBegin(std::uint64_t cycle, std::uint32_t chain,
                 bool detailed);

    /**
     * The matching RequestEnd committed. @p completed is false when
     * the latency tracker dropped the request (fast-forward overlap);
     * the queueing split comes from its Lindley recurrence.
     */
    void onEnd(std::uint64_t cycle, bool completed,
               std::uint64_t latency, std::uint64_t service,
               std::uint64_t queueing);

    /**
     * Every committed instruction's PC while a span is open: detects
     * the chain hand-off (the 4 GiB service window changes) and emits
     * the flow event. Cheap: one compare when no span is open.
     */
    void
    onCommitPc(std::uint64_t pc, std::uint64_t cycle)
    {
        if (!inSpan_)
            return;
        noteCommitWindow(pc, cycle);
    }

    bool inSpan() const { return inSpan_; }

    /** Builds the report; call it at the instant the measurement-
     *  phase registry delta is taken. */
    TailAttribution report() const;

  private:
    struct GroupState
    {
        std::string name;
        std::string services;
        std::uint64_t completed = 0;
        /** Min-heap by latency (front = smallest of the kept K). */
        std::vector<RequestSpan> worst;
        std::vector<RequestSpan> sample;
        Rng rng{1};
    };

    void noteCommitWindow(std::uint64_t pc, std::uint64_t cycle);
    void recordSpan(const RequestSpan &span);

    /** Reads every table entry now (no allocation). */
    SpanCounters read() const;

    /** (table entry, reader of one of its paths), every path once. */
    std::vector<std::pair<std::size_t, StatsRegistry::Reader>> readers_;
    std::vector<GroupState> groups_;
    std::size_t topK_;
    EventSink *sink_;

    bool recording_ = false;
    bool inSpan_ = false;
    bool beganDetailed_ = false;
    std::uint32_t curChain_ = 0;
    std::uint64_t curBegin_ = 0;
    std::uint32_t curHops_ = 0;
    std::uint64_t curWindow_ = 0; ///< Service index of the last PC.
    SpanCounters spanStart_{};

    SpanCounters lastSnap_{};
    SpanCounters inSpanTotal_{};
    SpanCounters outsideTotal_{};
    std::uint64_t spansRecorded_ = 0;
    std::uint64_t spansDropped_ = 0;
    std::uint64_t nextId_ = 0;
};

} // namespace hp::obs

#endif // HP_OBS_REQUEST_SPAN_HH
