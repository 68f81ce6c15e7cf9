#include "cache/hierarchy.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

std::uint64_t
instShareBytes(std::uint64_t total, double fraction, unsigned ways)
{
    fatalIf(fraction <= 0.0 || fraction > 1.0,
            "instruction share must be in (0, 1]");
    std::uint64_t bytes = static_cast<std::uint64_t>(total * fraction);
    std::uint64_t set_bytes = std::uint64_t(ways) * kBlockBytes;
    bytes = std::max<std::uint64_t>(bytes / set_bytes, 1) * set_bytes;
    return bytes;
}

SharedLevels::SharedLevels(const HierarchyParams &params,
                           unsigned metadata_read_bytes_per_cycle,
                           unsigned dram_fill_gap_cycles)
    : l2("L2i", instShareBytes(params.l2Bytes, params.l2InstFraction,
                               params.l2Ways), params.l2Ways),
      llc("LLCi", instShareBytes(params.llcBytes,
                                 params.llcInstFraction,
                                 params.llcWays), params.llcWays),
      mdArbiter(metadata_read_bytes_per_cycle),
      dramGapCycles(dram_fill_gap_cycles)
{}

CacheHierarchy::CacheHierarchy(const HierarchyParams &params,
                               std::shared_ptr<SharedLevels> shared)
    : params_(params),
      lvl_(shared ? std::move(shared)
                  : std::make_shared<SharedLevels>(params)),
      l1i_("L1I", params.l1iBytes, params.l1iWays),
      l2_(lvl_->l2),
      llc_(lvl_->llc),
      itlb_(params.itlbEntries, params.itlbWalkLatency)
{
    mshrs_.reserve(params.l1iMshrs);
}

Cycle
CacheHierarchy::dramQueueDelay(Cycle now)
{
    SharedLevels &lvl = *lvl_;
    const Cycle start = std::max(now, lvl.dramNextFree);
    lvl.dramNextFree = start + lvl.dramGapCycles;
    const Cycle delay = start - now;
    if (delay > 0) {
        ++stats_.dramQueuedFills;
        stats_.dramQueueCycles += delay;
    }
    return delay;
}

PrefetchStats &
CacheHierarchy::statsFor(Origin origin)
{
    return origin == Origin::Fdip ? stats_.fdip : stats_.ext;
}

void
CacheHierarchy::recordExtOutcome(Addr block, bool useful)
{
    const std::uint64_t *issued = extIssueSeq_.find(block);
    if (!issued)
        return;
    std::uint64_t distance = fetchBlockSeq_ - *issued;
    extIssueSeq_.erase(block);

    unsigned bin = 0;
    while (bin + 1 < HierarchyStats::kDistanceBins &&
           (1ull << (bin + 1)) <= distance) {
        ++bin;
    }
    if (useful) {
        ++stats_.extUsefulDistanceSamples;
        stats_.extUsefulDistanceSum += distance;
        ++stats_.extDistUseful[bin];
    } else {
        ++stats_.extDistUnused[bin];
    }
}

CacheHierarchy::Mshr *
CacheHierarchy::findMshr(Addr block)
{
    // The first match, scanned without an early exit (as the
    // set-associative table's searches are): from the back, each
    // match replaces the answer.
    Mshr *match = nullptr;
    for (std::size_t i = mshrs_.size(); i-- > 0;)
        match = mshrs_[i].block == block ? &mshrs_[i] : match;
    return match;
}

void
CacheHierarchy::allocMshr(Mshr mshr)
{
    mshr.seq = mshrSeq_++;
    nextFillAt_ = std::min(nextFillAt_, mshr.readyAt);
    mshrs_.push_back(mshr);
}

void
CacheHierarchy::completeEarliestFill()
{
    std::size_t first = 0;
    for (std::size_t i = 1; i < mshrs_.size(); ++i) {
        const Mshr &m = mshrs_[i];
        const Mshr &f = mshrs_[first];
        if (m.readyAt < f.readyAt ||
            (m.readyAt == f.readyAt && m.seq < f.seq)) {
            first = i;
        }
    }
    const Mshr done = mshrs_[first];
    mshrs_[first] = mshrs_.back();
    mshrs_.pop_back();
    nextFillAt_ = kNever;
    for (const Mshr &m : mshrs_)
        nextFillAt_ = std::min(nextFillAt_, m.readyAt);
    completeFill(done);
}

void
CacheHierarchy::tick(Cycle now)
{
    while (!mshrs_.empty() && nextFillAt_ <= now)
        completeEarliestFill();
}

void
CacheHierarchy::completeFill(const Mshr &mshr)
{
    if (mshr.fromMem) {
        std::uint64_t &bucket =
            mshr.origin == Origin::Demand ? stats_.dramDemandBytes :
            mshr.origin == Origin::Fdip ? stats_.dramFdipBytes :
            stats_.dramExtBytes;
        bucket += kBlockBytes;
    }

    if (mshr.fillLlc)
        llc_.insert(mshr.block, mshr.origin);
    if (mshr.fillL2)
        l2_.insert(mshr.block, mshr.origin);

    if (mshr.toL2Only)
        return;

    // A prefetched block that a demand merged into counts as serving
    // demand; insert it as used so eviction does not call it useless.
    Origin l1_origin = mshr.origin;
    EvictInfo evicted = l1i_.insert(mshr.block, l1_origin);
    if (mshr.origin != Origin::Demand) {
        ++statsFor(mshr.origin).inserted;
        HP_EMIT(obs_, emit(EventKind::PrefetchFill, mshr.readyAt,
                           mshr.block, 0, mshr.demandMerged,
                           static_cast<std::uint8_t>(mshr.origin)));
        if (mshr.demandMerged) {
            // Mark used immediately: the merged demand consumes it.
            l1i_.markUsed(mshr.block);
        }
    }
    if (evicted.valid && evicted.origin != Origin::Demand &&
        !evicted.used) {
        ++statsFor(evicted.origin).uselessEvicted;
        HP_EMIT(obs_, emit(EventKind::PrefetchEvictedUnused,
                           mshr.readyAt, evicted.block, 0, 0,
                           static_cast<std::uint8_t>(evicted.origin)));
        if (evicted.origin == Origin::Ext)
            recordExtOutcome(evicted.block, /*useful=*/false);
    }
    if (evicted.valid && attr_.enabled()) {
        attr_.onEvicted(evicted.block,
                        evicted.origin != Origin::Demand, evicted.used);
    }
}

CacheHierarchy::ProbeResult
CacheHierarchy::probeBeyondL1(Addr block, bool demand, Cycle now)
{
    ProbeResult result;
    if (!demand) {
        // Prefetch-side probes must not disturb recency or the
        // first-use tracking of resident blocks.
        if (l2_.contains(block)) {
            result.latency = params_.l2Latency;
            result.level = ServiceLevel::L2;
            return result;
        }
        result.fillL2 = true;
        if (llc_.contains(block)) {
            result.latency = params_.llcLatency;
            result.level = ServiceLevel::Llc;
            return result;
        }
        result.fillLlc = true;
        result.fromMem = true;
        result.latency = params_.memLatency;
        // Consolidated cores share the DRAM fill port: a fill may
        // queue behind fills from other cores (inert at gap 0).
        if (lvl_->dramGapCycles > 0)
            result.latency += dramQueueDelay(now);
        result.level = ServiceLevel::Mem;
        return result;
    }
    if (auto hit = l2_.access(block)) {
        result.latency = params_.l2Latency;
        result.level = ServiceLevel::L2;
        if (demand && hit->firstUse) {
            if (hit->origin == Origin::Ext)
                result.extServedAtL2 = true;
            else if (hit->origin == Origin::Fdip)
                result.fdipServedAtL2 = true;
        }
        return result;
    }
    result.fillL2 = true;
    if (llc_.access(block)) {
        result.latency = params_.llcLatency;
        result.level = ServiceLevel::Llc;
        return result;
    }
    result.fillLlc = true;
    result.fromMem = true;
    result.latency = params_.memLatency;
    if (lvl_->dramGapCycles > 0)
        result.latency += dramQueueDelay(now);
    result.level = ServiceLevel::Mem;
    return result;
}

DemandResult
CacheHierarchy::demandAccess(Addr block, Cycle now)
{
    ++stats_.demandAccesses;

    if (auto hit = l1i_.access(block)) {
        if (hit->firstUse && hit->origin != Origin::Demand) {
            ++statsFor(hit->origin).usefulL1;
            if (hit->origin == Origin::Ext)
                recordExtOutcome(block, /*useful=*/true);
        }
        return {false, now + params_.l1iLatency, ServiceLevel::L1};
    }

    ++stats_.demandL1Misses;

    if (Mshr *merged = findMshr(block)) {
        Mshr &mshr = *merged;
        if (mshr.origin != Origin::Demand && !mshr.demandMerged) {
            ++statsFor(mshr.origin).lateMerges;
            HP_EMIT(obs_, emit(EventKind::PrefetchLate, now, block, 0,
                               mshr.readyAt > now ? mshr.readyAt - now
                                                  : 0,
                               static_cast<std::uint8_t>(mshr.origin)));
            if (mshr.origin == Origin::Ext)
                recordExtOutcome(block, /*useful=*/true);
        }
        bool was_prefetch = mshr.origin != Origin::Demand;
        mshr.demandMerged = true;
        // A prefetch targeting the L2 must now fill the L1-I too.
        mshr.toL2Only = false;
        Cycle wait = mshr.readyAt > now ? mshr.readyAt - now : 0;
        stats_.missCyclesMshr += wait;
        ++stats_.servedByMshr;
        if (mshr.fillL2)
            ++stats_.demandL2Misses;
        if (mshr.fillLlc)
            ++stats_.demandLlcMisses;
        HP_EMIT(obs_, emitSpan(EventKind::DemandMissMshr, now,
                               now + wait, block));
        if (attr_.enabled())
            attr_.onMissMerge(block, was_prefetch, wait);
        return {false, std::max(mshr.readyAt, now), ServiceLevel::Mshr};
    }

    if (mshrs_.size() >= params_.l1iMshrs) {
        HP_EMIT(obs_, emitSpan(EventKind::DemandMissMshr, now, now + 1,
                               block, /*arg=*/1));
        if (attr_.enabled())
            attr_.onMissRetry(block);
        return {true, now + 1, ServiceLevel::Mshr};
    }

    ProbeResult probe = probeBeyondL1(block, /*demand=*/true, now);
    if (probe.extServedAtL2) {
        ++stats_.ext.usefulL2;
        // In prefetch-to-L2 mode this is the prefetch's payoff point.
        recordExtOutcome(block, /*useful=*/true);
    }
    if (probe.fdipServedAtL2)
        ++stats_.fdip.usefulL2;

    switch (probe.level) {
      case ServiceLevel::L2:
        ++stats_.servedByL2;
        stats_.missCyclesL2 += probe.latency;
        break;
      case ServiceLevel::Llc:
        ++stats_.servedByLlc;
        stats_.missCyclesLlc += probe.latency;
        ++stats_.demandL2Misses;
        break;
      case ServiceLevel::Mem:
        ++stats_.servedByMem;
        stats_.missCyclesMem += probe.latency;
        ++stats_.demandL2Misses;
        ++stats_.demandLlcMisses;
        break;
      default:
        break;
    }

    Mshr mshr;
    mshr.block = block;
    mshr.origin = Origin::Demand;
    mshr.readyAt = now + probe.latency;
    mshr.fillL2 = probe.fillL2;
    mshr.fillLlc = probe.fillLlc;
    mshr.fromMem = probe.fromMem;
    mshr.demandMerged = true;
    allocMshr(mshr);
    if (obs_) {
        EventKind kind = probe.level == ServiceLevel::L2
            ? EventKind::DemandMissL2
            : probe.level == ServiceLevel::Llc ? EventKind::DemandMissLlc
                                               : EventKind::DemandMissMem;
        obs_->emitSpan(kind, now, mshr.readyAt, block);
    }
    if (attr_.enabled())
        attr_.onMissFill(block, probe.latency);
    return {false, mshr.readyAt, probe.level};
}

bool
CacheHierarchy::prefetch(Addr block, Origin origin, Cycle now, bool to_l2)
{
    PrefetchStats &ps = statsFor(origin);
    ++ps.issued;
    const std::uint8_t org = static_cast<std::uint8_t>(origin);

    if (to_l2 ? l2_.contains(block) : l1i_.contains(block)) {
        ++ps.redundant;
        HP_EMIT(obs_, emit(EventKind::PrefetchRedundant, now, block,
                           0, 0, org));
        return false;
    }
    if (findMshr(block)) {
        ++ps.redundant;
        HP_EMIT(obs_, emit(EventKind::PrefetchRedundant, now, block,
                           0, 1, org));
        return false;
    }
    if (mshrs_.size() + params_.mshrsReservedForDemand >=
        params_.l1iMshrs) {
        ++ps.dropped;
        HP_EMIT(obs_, emit(EventKind::PrefetchDropped, now, block,
                           0, 0, org));
        if (attr_.enabled())
            attr_.onPrefetchDropped(block);
        return false;
    }

    ProbeResult probe = probeBeyondL1(block, /*demand=*/false, now);
    if (to_l2 && probe.level == ServiceLevel::L2) {
        // Already in the L2: nothing to do for an L2-targeted prefetch.
        ++ps.redundant;
        HP_EMIT(obs_, emit(EventKind::PrefetchRedundant, now, block,
                           0, 2, org));
        return false;
    }

    Mshr mshr;
    mshr.block = block;
    mshr.origin = origin;
    mshr.readyAt = now + probe.latency;
    mshr.fillL2 = probe.fillL2;
    mshr.fillLlc = probe.fillLlc;
    mshr.fromMem = probe.fromMem;
    mshr.toL2Only = to_l2;
    allocMshr(mshr);
    HP_EMIT(obs_, emit(EventKind::PrefetchIssued, now, block, 0,
                       probe.latency, org));
    if (attr_.enabled() && !to_l2)
        attr_.onPrefetchAccepted(block);
    if (to_l2)
        ++ps.inserted;
    if (origin == Origin::Ext)
        extIssueSeq_[block] = fetchBlockSeq_;
    return true;
}

Cycle
CacheHierarchy::functionalTouch(Addr block)
{
    ++stats_.demandAccesses;

    if (auto hit = l1i_.access(block)) {
        if (hit->firstUse && hit->origin != Origin::Demand) {
            ++statsFor(hit->origin).usefulL1;
            if (hit->origin == Origin::Ext)
                recordExtOutcome(block, /*useful=*/true);
        }
        return 0;
    }

    ++stats_.demandL1Misses;

    // Timeless pull through the lower levels: recency and first-use
    // tracking move exactly as the detailed demand path would move
    // them, fills land immediately instead of via an MSHR. Miss
    // attribution hooks are timing observability and stay off here.
    Cycle latency = params_.l2Latency;
    if (auto hit = l2_.access(block)) {
        if (hit->firstUse) {
            if (hit->origin == Origin::Ext) {
                ++stats_.ext.usefulL2;
                recordExtOutcome(block, /*useful=*/true);
            } else if (hit->origin == Origin::Fdip) {
                ++stats_.fdip.usefulL2;
            }
        }
        ++stats_.servedByL2;
    } else {
        ++stats_.demandL2Misses;
        if (llc_.access(block)) {
            ++stats_.servedByLlc;
            latency = params_.llcLatency;
        } else {
            ++stats_.demandLlcMisses;
            latency = params_.memLatency;
            ++stats_.servedByMem;
            stats_.dramDemandBytes += kBlockBytes;
            llc_.insert(block, Origin::Demand);
        }
        l2_.insert(block, Origin::Demand);
    }

    EvictInfo evicted = l1i_.insert(block, Origin::Demand);
    if (evicted.valid && evicted.origin != Origin::Demand &&
        !evicted.used) {
        ++statsFor(evicted.origin).uselessEvicted;
        if (evicted.origin == Origin::Ext)
            recordExtOutcome(evicted.block, /*useful=*/false);
    }
    return latency;
}

void
CacheHierarchy::functionalPrefetch(Addr block, Origin origin,
                                   bool to_l2)
{
    PrefetchStats &ps = statsFor(origin);
    ++ps.issued;

    if (to_l2 ? l2_.contains(block) : l1i_.contains(block)) {
        ++ps.redundant;
        return;
    }

    // Same fill decisions as probeBeyondL1(demand=false) followed by
    // an immediate completeFill, with no MSHR in between.
    if (!l2_.contains(block)) {
        if (!llc_.contains(block)) {
            llc_.insert(block, origin);
            std::uint64_t &bucket = origin == Origin::Fdip
                ? stats_.dramFdipBytes : stats_.dramExtBytes;
            bucket += kBlockBytes;
        }
        l2_.insert(block, origin);
    }
    ++ps.inserted;

    if (!to_l2) {
        EvictInfo evicted = l1i_.insert(block, origin);
        if (evicted.valid && evicted.origin != Origin::Demand &&
            !evicted.used) {
            ++statsFor(evicted.origin).uselessEvicted;
            if (evicted.origin == Origin::Ext)
                recordExtOutcome(evicted.block, /*useful=*/false);
        }
    }

    if (origin == Origin::Ext)
        extIssueSeq_[block] = fetchBlockSeq_;
}

void
CacheHierarchy::drainInFlight()
{
    // Fills (and the evictions they cause) land in (readyAt,
    // allocation) order, as the timing path would retire them.
    while (!mshrs_.empty())
        completeEarliestFill();
}

unsigned
CacheHierarchy::freeMshrs() const
{
    return params_.l1iMshrs > mshrs_.size()
        ? params_.l1iMshrs - static_cast<unsigned>(mshrs_.size()) : 0;
}

Cycle
CacheHierarchy::metadataRead(std::uint64_t bytes, Cycle now)
{
    ++metadataReads_;
    bool from_dram = params_.metadataDramEvery != 0 &&
        metadataReads_ % params_.metadataDramEvery == 0;
    // Shared metadata read port: replay chain-walks from all cores
    // arbitrate FCFS for its bandwidth (inert when unmodeled).
    Cycle start = now;
    if (lvl_->mdArbiter.enabled()) {
        start = lvl_->mdArbiter.acquire(bytes, now);
        ++stats_.mdArbiterReads;
        stats_.mdArbiterStallCycles += start - now;
    }
    Cycle ready = start +
        (from_dram ? params_.memLatency : params_.llcLatency);
    HP_EMIT(obs_, emitSpan(EventKind::MetadataRead, now, ready,
                           /*addr=*/from_dram ? 1 : 0, bytes));
    if (from_dram)
        stats_.dramMetadataReadBytes += roundUp(bytes, kBlockBytes);
    return ready;
}

void
CacheHierarchy::metadataWrite(std::uint64_t bytes, Cycle now)
{
    HP_EMIT(obs_, emit(EventKind::MetadataWrite, now, 0, 0, bytes));
    // Posted writes; dirty metadata lines eventually reach DRAM.
    stats_.dramMetadataWriteBytes += bytes;
}

namespace
{

/** Every PrefetchStats counter and its registry path suffix. */
constexpr std::pair<const char *, std::uint64_t PrefetchStats::*>
    kPrefetchCounters[] = {
        {"issued", &PrefetchStats::issued},
        {"redundant", &PrefetchStats::redundant},
        {"dropped", &PrefetchStats::dropped},
        {"inserted", &PrefetchStats::inserted},
        {"useful_l1", &PrefetchStats::usefulL1},
        {"useful_l2", &PrefetchStats::usefulL2},
        {"late_merges", &PrefetchStats::lateMerges},
        {"useless_evicted", &PrefetchStats::uselessEvicted},
};

/** Registers one PrefetchStats group under @p prefix. */
void
registerPrefetchStats(StatsRegistry &reg, const std::string &prefix,
                      const PrefetchStats &ps)
{
    for (const auto &[name, field] : kPrefetchCounters)
        reg.add(prefix + "." + name, [&ps, field] { return ps.*field; });
}

} // namespace

PrefetchStats
prefetchStats(const StatsSnapshot &stats, const std::string &origin)
{
    PrefetchStats ps;
    for (const auto &[name, field] : kPrefetchCounters)
        ps.*field = stats.value(origin + "." + name);
    return ps;
}

void
CacheHierarchy::registerStats(StatsRegistry &reg) const
{
    const HierarchyStats &s = stats_;
    reg.add("l1i.demand_accesses", [&s] { return s.demandAccesses; });
    reg.add("l1i.demand_misses", [&s] { return s.demandL1Misses; });
    reg.add("l2i.demand_misses", [&s] { return s.demandL2Misses; });
    reg.add("llc.demand_misses", [&s] { return s.demandLlcMisses; });
    reg.add("l1i.served_by_l2", [&s] { return s.servedByL2; });
    reg.add("l1i.served_by_llc", [&s] { return s.servedByLlc; });
    reg.add("l1i.served_by_mem", [&s] { return s.servedByMem; });
    reg.add("l1i.served_by_mshr", [&s] { return s.servedByMshr; });
    reg.add("l1i.miss_cycles_l2", [&s] { return s.missCyclesL2; });
    reg.add("l1i.miss_cycles_llc", [&s] { return s.missCyclesLlc; });
    reg.add("l1i.miss_cycles_mem", [&s] { return s.missCyclesMem; });
    reg.add("l1i.miss_cycles_mshr", [&s] { return s.missCyclesMshr; });

    registerPrefetchStats(reg, "fdip", s.fdip);
    registerPrefetchStats(reg, "ext", s.ext);
    reg.add("ext.useful_distance_samples",
            [&s] { return s.extUsefulDistanceSamples; });
    reg.add("ext.useful_distance_sum",
            [&s] { return s.extUsefulDistanceSum; });
    for (unsigned b = 0; b < HierarchyStats::kDistanceBins; ++b) {
        reg.add("ext.useful_distance_bin" + std::to_string(b),
                [&s, b] { return s.extDistUseful[b]; });
    }
    for (unsigned b = 0; b < HierarchyStats::kDistanceBins; ++b) {
        reg.add("ext.unused_distance_bin" + std::to_string(b),
                [&s, b] { return s.extDistUnused[b]; });
    }

    reg.add("dram.demand_bytes", [&s] { return s.dramDemandBytes; });
    reg.add("dram.fdip_bytes", [&s] { return s.dramFdipBytes; });
    reg.add("dram.ext_bytes", [&s] { return s.dramExtBytes; });
    reg.add("dram.metadata_read_bytes",
            [&s] { return s.dramMetadataReadBytes; });
    reg.add("dram.metadata_write_bytes",
            [&s] { return s.dramMetadataWriteBytes; });
    reg.add("mt.dram_queued_fills", [&s] { return s.dramQueuedFills; });
    reg.add("mt.dram_queue_cycles", [&s] { return s.dramQueueCycles; });
    reg.add("mt.metadata_arbiter_reads",
            [&s] { return s.mdArbiterReads; });
    reg.add("mt.metadata_arbiter_stall_cycles",
            [&s] { return s.mdArbiterStallCycles; });

    itlb_.registerStats(reg, "itlb");

    attr_.registerStats(reg, "missAttribution");
}

template <class Ar>
void
CacheHierarchy::serializeMshrs(Ar &ar)
{
    if constexpr (Ar::loading) {
        io(ar, mshrs_);
        if (mshrs_.size() > params_.l1iMshrs) {
            ar.markFailed("more L1-I misses in flight than MSHRs");
            return;
        }
        // Position is completion order, so it becomes the sequence.
        nextFillAt_ = kNever;
        for (std::size_t i = 0; i < mshrs_.size(); ++i) {
            checkBlock(ar, mshrs_[i].block,
                       "an MSHR's block is not block-aligned");
            for (std::size_t j = 0; j < i; ++j) {
                if (mshrs_[j].block == mshrs_[i].block) {
                    ar.markFailed("two MSHRs hold the same block");
                    return;
                }
            }
            mshrs_[i].seq = i;
            nextFillAt_ = std::min(nextFillAt_, mshrs_[i].readyAt);
        }
        mshrSeq_ = mshrs_.size();
    } else {
        std::vector<Mshr> order = mshrs_;
        std::sort(order.begin(), order.end(),
                  [](const Mshr &a, const Mshr &b) {
                      return a.readyAt != b.readyAt ? a.readyAt < b.readyAt
                                                    : a.seq < b.seq;
                  });
        io(ar, order);
    }
}

template <class Ar>
void
CacheHierarchy::serializeState(Ar &ar)
{
    l1i_.serializeState(ar);
    l2_.serializeState(ar);
    llc_.serializeState(ar);
    itlb_.serializeState(ar);
    serializeMshrs(ar);
    io(ar, extIssueSeq_);
    io(ar, fetchBlockSeq_);
    io(ar, metadataReads_);
    // Present only when attribution runs. Enablement is process-wide
    // obs config, so writer and loader agree.
    if (attr_.enabled())
        attr_.serializeState(ar);
}

template void CacheHierarchy::serializeState(StateWriter &);
template void CacheHierarchy::serializeState(StateLoader &);

} // namespace hp
