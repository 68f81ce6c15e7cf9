#include "obs/miss_attribution.hh"

namespace hp
{

const char *
missCauseName(MissCause cause)
{
    switch (cause) {
      case MissCause::NeverPrefetched: return "never_prefetched";
      case MissCause::PrefetchLate: return "prefetch_late";
      case MissCause::PrefetchedEvicted: return "prefetched_evicted";
      case MissCause::DemandEvicted: return "demand_evicted";
      case MissCause::ResourceContention: return "resource_contention";
      case MissCause::WrongPath: return "wrong_path";
      case MissCause::kCount: break;
    }
    return "?";
}

void
MissAttribution::onPrefetchAccepted(Addr block)
{
    // An accepted prefetch supersedes a stale drop record: the block
    // now has a live fill in flight, so a subsequent miss is "late",
    // not "contention".
    if (LineState *line = lines_.find(block))
        line->prefetchDropped = false;
}

void
MissAttribution::onPrefetchDropped(Addr block)
{
    lines_[block].prefetchDropped = true;
}

void
MissAttribution::onEvicted(Addr block, bool prefetch_origin, bool used)
{
    LineState &line = lines_[block];
    if (prefetch_origin && !used)
        line.prefetchEvicted = true;
    else
        line.demandEvicted = true;
}

MissCause
MissAttribution::classify(const LineState &line) const
{
    // Priority order: a prefetched-then-evicted episode is the most
    // specific story (the prefetcher did its part), MSHR contention
    // next, then plain capacity re-misses; anything else was simply
    // never prefetched.
    if (line.prefetchEvicted)
        return MissCause::PrefetchedEvicted;
    if (line.prefetchDropped)
        return MissCause::ResourceContention;
    if (line.demandEvicted)
        return MissCause::DemandEvicted;
    return MissCause::NeverPrefetched;
}

void
MissAttribution::account(MissCause cause, Cycle latency)
{
    unsigned idx = static_cast<unsigned>(cause);
    ++counters_.count[idx];
    counters_.latencyCycles[idx] += latency;
}

void
MissAttribution::onMissMerge(Addr block, bool prefetch_origin, Cycle wait)
{
    if (prefetch_origin) {
        account(MissCause::PrefetchLate, wait);
        return;
    }
    // Merging into a demand fill: this is the same miss episode as the
    // allocation that created the MSHR; repeat its cause.
    const LineState *line = lines_.find(block);
    MissCause cause = line ? line->lastCause : MissCause::NeverPrefetched;
    account(cause, wait);
}

void
MissAttribution::onMissRetry(Addr block)
{
    (void)block;
    // The MSHR file itself is the bottleneck; the retry costs a cycle.
    account(MissCause::ResourceContention, 1);
}

void
MissAttribution::onMissFill(Addr block, Cycle latency)
{
    LineState &line = lines_[block];
    MissCause cause = classify(line);
    account(cause, latency);
    // Consume the episode: the history described the path to *this*
    // miss; the block's next story starts from its new residency.
    line.prefetchEvicted = false;
    line.demandEvicted = false;
    line.prefetchDropped = false;
    line.lastCause = cause;
}

void
MissAttribution::registerStats(StatsRegistry &reg,
                               const std::string &prefix) const
{
    const Counters &c = counters_;
    for (unsigned i = 0; i < kNumMissCauses; ++i) {
        MissCause cause = static_cast<MissCause>(i);
        reg.add(prefix + "." + missCauseName(cause),
                [&c, i] { return c.count[i]; });
        reg.add(prefix + "." + std::string(missCauseName(cause)) +
                    "_latency_cycles",
                [&c, i] { return c.latencyCycles[i]; });
    }
}

} // namespace hp
