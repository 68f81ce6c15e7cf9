#include "obs/request_span.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hp::obs
{

namespace
{

/** Strict "worse than" order: higher latency first, then earlier
 *  completion — a total order, so reservoir contents never depend on
 *  heap internals or merge order. */
bool
worseThan(const RequestSpan &a, const RequestSpan &b)
{
    if (a.latency != b.latency)
        return a.latency > b.latency;
    return a.id < b.id;
}

/** Heap comparator: the *least bad* span sits at the heap front. */
bool
heapCmp(const RequestSpan &a, const RequestSpan &b)
{
    return worseThan(a, b);
}

/** @p into += @p later - @p earlier, entry by entry. */
void
accumulate(SpanCounters &into, const SpanCounters &later,
           const SpanCounters &earlier = {})
{
    for (std::size_t i = 0; i < kNumSpanCounters; ++i)
        into[i] += later[i] - earlier[i];
}

} // namespace

const std::array<SpanCounterSpec, kNumSpanCounters> &
spanCounterTable()
{
    static const std::array<SpanCounterSpec, kNumSpanCounters> table =
        [] {
            std::array<SpanCounterSpec, kNumSpanCounters> t;
            std::size_t n = 0;
            auto add = [&t, &n](std::string key,
                                std::vector<std::string> paths) {
                t[n++] = {std::move(key), std::move(paths)};
            };
            for (unsigned c = 0; c < kNumMissCauses; ++c) {
                const std::string name =
                    missCauseName(static_cast<MissCause>(c));
                add(name, {"missAttribution." + name});
                add(name + "_latency_cycles",
                    {"missAttribution." + name + "_latency_cycles"});
            }
            add("fdip_useful", {"fdip.useful_l1"});
            add("fdip_late", {"fdip.late_merges"});
            add("ext_useful", {"ext.useful_l1"});
            add("ext_late", {"ext.late_merges"});
            add("itlb_misses", {"itlb.misses"});
            add("l1i_demand_misses", {"l1i.demand_misses"});
            add("miss_cycles",
                {"l1i.miss_cycles_l2", "l1i.miss_cycles_llc",
                 "l1i.miss_cycles_mem", "l1i.miss_cycles_mshr"});
            add("context_switches", {"sim.context_switches"});
            add("md_arbiter_stall_cycles",
                {"mt.metadata_arbiter_stall_cycles"});
            panicIf(n != kNumSpanCounters,
                    "span table size disagrees with kNumSpanCounters");
            return t;
        }();
    return table;
}

std::size_t
spanCounterIndex(const std::string &key)
{
    const auto &table = spanCounterTable();
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (table[i].key == key)
            return i;
    }
    panic("no span counter '" + key + "'");
}

void
SpanCohort::add(const RequestSpan &s)
{
    ++count;
    latencySum += s.latency;
    serviceSum += s.service;
    queueingSum += s.queueing;
    accumulate(deltas, s.deltas);
}

SpanCohort
TailGroup::tailCohort() const
{
    SpanCohort cohort;
    if (worst.empty())
        return cohort;
    std::size_t k = static_cast<std::size_t>(completed / 1000);
    if (k == 0)
        k = 1;
    k = std::min(k, worst.size());
    for (std::size_t i = 0; i < k; ++i)
        cohort.add(worst[i]);
    return cohort;
}

SpanCohort
TailGroup::medianCohort() const
{
    SpanCohort cohort;
    if (sample.empty())
        return cohort;
    std::vector<RequestSpan> sorted = sample;
    std::sort(sorted.begin(), sorted.end(),
              [](const RequestSpan &a, const RequestSpan &b) {
                  return worseThan(b, a); // ascending latency
              });
    std::size_t k = tailCohort().count;
    if (k == 0)
        k = 1;
    k = std::min(k, sorted.size());
    const std::size_t start = (sorted.size() - k) / 2;
    for (std::size_t i = 0; i < k; ++i)
        cohort.add(sorted[start + i]);
    return cohort;
}

void
mergeTailAttribution(TailAttribution &into, const TailAttribution &w)
{
    if (into.topK == 0)
        into.topK = w.topK;
    accumulate(into.inSpan, w.inSpan);
    accumulate(into.outside, w.outside);
    into.spansRecorded += w.spansRecorded;
    into.spansDropped += w.spansDropped;

    if (into.groups.empty()) {
        into.groups = w.groups;
        return;
    }
    for (const TailGroup &wg : w.groups) {
        TailGroup *tg = nullptr;
        for (TailGroup &g : into.groups) {
            if (g.name == wg.name) {
                tg = &g;
                break;
            }
        }
        if (tg == nullptr) {
            into.groups.push_back(wg);
            continue;
        }
        tg->completed += wg.completed;

        // Exact top-K over the union of the two exact top-K sets.
        tg->worst.insert(tg->worst.end(), wg.worst.begin(),
                         wg.worst.end());
        std::sort(tg->worst.begin(), tg->worst.end(), worseThan);
        if (into.topK > 0 && tg->worst.size() > into.topK)
            tg->worst.resize(into.topK);

        // The uniform samples merge by deterministic even-stride
        // thinning of the concatenation: approximately uniform over
        // the union, and byte-stable across reruns.
        std::vector<RequestSpan> merged = tg->sample;
        merged.insert(merged.end(), wg.sample.begin(),
                      wg.sample.end());
        if (into.topK > 0 && merged.size() > into.topK) {
            std::vector<RequestSpan> thinned;
            thinned.reserve(into.topK);
            for (std::size_t i = 0; i < into.topK; ++i) {
                thinned.push_back(
                    merged[i * merged.size() / into.topK]);
            }
            merged = std::move(thinned);
        }
        tg->sample = std::move(merged);
    }
}

RequestSpanTracker::RequestSpanTracker(
    const StatsRegistry &registry,
    std::vector<std::pair<std::string, std::string>> chains,
    std::size_t top_k, EventSink *sink)
    : topK_(top_k ? top_k : 1), sink_(sink)
{
    const auto &table = spanCounterTable();
    for (std::size_t i = 0; i < table.size(); ++i) {
        for (const std::string &path : table[i].paths)
            readers_.emplace_back(i, registry.reader(path));
    }
    groups_.reserve(chains.size());
    std::uint64_t idx = 0;
    for (auto &[name, services] : chains) {
        GroupState g;
        g.name = std::move(name);
        g.services = std::move(services);
        // A fixed per-chain seed: reservoir contents depend only on
        // the deterministic completion stream, never on wall clock.
        g.rng = Rng(0x5eeded0bb5ULL + idx * 0x9e3779b97f4a7c15ULL);
        groups_.push_back(std::move(g));
        ++idx;
    }
}

SpanCounters
RequestSpanTracker::read() const
{
    SpanCounters now{};
    for (const auto &[entry, reader] : readers_)
        now[entry] += reader();
    return now;
}

void
RequestSpanTracker::beginRecording()
{
    recording_ = true;
    inSpan_ = false;
    lastSnap_ = read();
    inSpanTotal_ = SpanCounters{};
    outsideTotal_ = SpanCounters{};
    spansRecorded_ = 0;
    spansDropped_ = 0;
    nextId_ = 0;
    for (GroupState &g : groups_) {
        g.completed = 0;
        g.worst.clear();
        g.sample.clear();
    }
}

void
RequestSpanTracker::onBegin(std::uint64_t cycle, std::uint32_t chain,
                            bool detailed)
{
    if (!recording_)
        return;
    // Whatever accrued since the last edge happened between requests.
    const SpanCounters now = read();
    accumulate(outsideTotal_, now, lastSnap_);
    lastSnap_ = now;
    inSpan_ = true;
    beganDetailed_ = detailed;
    curChain_ = chain;
    curBegin_ = cycle;
    curHops_ = 0;
    curWindow_ = ~std::uint64_t(0);
    spanStart_ = now;
}

void
RequestSpanTracker::onEnd(std::uint64_t cycle, bool completed,
                          std::uint64_t latency, std::uint64_t service,
                          std::uint64_t queueing)
{
    if (!recording_ || !inSpan_)
        return;
    inSpan_ = false;
    const SpanCounters now = read();
    accumulate(inSpanTotal_, now, lastSnap_);
    lastSnap_ = now;

    if (!completed || !beganDetailed_) {
        // The latency tracker dropped the request (its begin or end
        // fell under the fast-forward clock): no valid timing, but
        // the counter cycles still belong to "inside a span".
        ++spansDropped_;
        return;
    }

    RequestSpan span;
    span.id = nextId_++;
    span.chain = curChain_;
    span.beginCycle = curBegin_;
    span.endCycle = cycle;
    span.latency = latency;
    span.service = service;
    span.queueing = queueing;
    span.hops = curHops_;
    accumulate(span.deltas, now, spanStart_);
    recordSpan(span);

    if (sink_) {
        sink_->emitSpan(EventKind::RequestSpan, curBegin_, cycle,
                        /*addr=*/0, /*arg=*/span.id,
                        static_cast<std::uint8_t>(
                            std::min<std::uint32_t>(curChain_, 0xff)));
    }
}

void
RequestSpanTracker::noteCommitWindow(std::uint64_t pc,
                                     std::uint64_t cycle)
{
    const std::uint64_t window = pc >> 32;
    if (curWindow_ == ~std::uint64_t(0)) {
        curWindow_ = window;
        return;
    }
    if (window == curWindow_)
        return;
    const std::uint64_t prev = curWindow_;
    curWindow_ = window;
    ++curHops_;
    if (sink_) {
        // One event encodes both flow endpoints: the exporter renders
        // a flow-start on the previous service's track and the finish
        // on the new one. origin packs (prev << 4 | next), clamped.
        const std::uint8_t packed = static_cast<std::uint8_t>(
            (std::min<std::uint64_t>(prev, 0xf) << 4) |
            std::min<std::uint64_t>(window, 0xf));
        sink_->emit(EventKind::ChainHandoff, cycle, pc,
                    /*dur=*/curHops_, /*arg=*/nextId_, packed);
    }
}

void
RequestSpanTracker::recordSpan(const RequestSpan &span)
{
    ++spansRecorded_;
    const std::size_t gi = span.chain < groups_.size()
        ? span.chain : groups_.size() - 1;
    GroupState &g = groups_[gi];
    ++g.completed;

    // Exact top-K: a min-heap (by badness) of the K worst so far.
    if (g.worst.size() < topK_) {
        g.worst.push_back(span);
        std::push_heap(g.worst.begin(), g.worst.end(), heapCmp);
    } else if (worseThan(span, g.worst.front())) {
        std::pop_heap(g.worst.begin(), g.worst.end(), heapCmp);
        g.worst.back() = span;
        std::push_heap(g.worst.begin(), g.worst.end(), heapCmp);
    }

    // Uniform reservoir (Algorithm R) for the median cohort.
    if (g.sample.size() < topK_) {
        g.sample.push_back(span);
    } else {
        const std::uint64_t j = g.rng.nextUint(g.completed);
        if (j < topK_)
            g.sample[static_cast<std::size_t>(j)] = span;
    }
}

TailAttribution
RequestSpanTracker::report() const
{
    TailAttribution out;
    out.topK = topK_;
    out.inSpan = inSpanTotal_;
    out.outside = outsideTotal_;
    out.spansRecorded = spansRecorded_;
    out.spansDropped = spansDropped_;

    // Close the telescoping: everything since the last edge (or the
    // open span's start) up to now — the instant of the measurement
    // delta — so inSpan + outside partitions it.
    accumulate(inSpan_ ? out.inSpan : out.outside, read(), lastSnap_);

    out.groups.reserve(groups_.size());
    for (const GroupState &g : groups_) {
        TailGroup tg;
        tg.name = g.name;
        tg.services = g.services;
        tg.completed = g.completed;
        tg.worst = g.worst;
        std::sort(tg.worst.begin(), tg.worst.end(), worseThan);
        tg.sample = g.sample;
        out.groups.push_back(std::move(tg));
    }
    return out;
}

} // namespace hp::obs
