#include "core/hierarchical_prefetcher.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hp
{

namespace
{

/** Pointer width for the default 512 KB buffer (11 bits, per paper). */
unsigned
tablePointerBits(const MetadataBuffer &buffer)
{
    return buffer.pointerBits();
}

} // namespace

HierarchicalPrefetcher::HierarchicalPrefetcher(
    const HierarchicalConfig &config, MetadataMemory &memory)
    : config_(config),
      memory_(memory),
      compression_(config.compressionEntries),
      buffer_(config.metadataBufferBytes),
      table_(config.matEntries, config.matWays,
             /*pointer_bits=*/0)
{
    // Rebuild the table with the pointer width the buffer actually
    // needs so the storage report is exact.
    table_ = MetadataAddressTable(config.matEntries, config.matWays,
                                  tablePointerBits(buffer_));
    // Bulk replay: a Bundle can stream thousands of blocks; the queue
    // is the pacing buffer between segment reads and the issue port.
    setMaxQueue(8192);
}

std::uint64_t
HierarchicalPrefetcher::storageBits() const
{
    // Only the Metadata Address Table and the Compression Buffer live
    // on chip; all Bundle records are in main memory.
    return table_.storageBits() + compression_.storageBits();
}

void
HierarchicalPrefetcher::registerStats(StatsRegistry &reg,
                                      const std::string &prefix) const
{
    Prefetcher::registerStats(reg, prefix);
    const HierarchicalStats &s = stats_;
    reg.add(prefix + ".tagged_commits",
            [&s] { return s.taggedCommits; });
    reg.add(prefix + ".bundles_started",
            [&s] { return s.bundlesStarted; });
    reg.add(prefix + ".mat_hits", [&s] { return s.matHits; });
    reg.add(prefix + ".mat_misses", [&s] { return s.matMisses; });
    reg.add(prefix + ".mat_invalidations",
            [&s] { return s.matInvalidations; });
    reg.add(prefix + ".segments_allocated",
            [&s] { return s.segmentsAllocated; });
    reg.add(prefix + ".regions_recorded",
            [&s] { return s.regionsRecorded; });
    reg.add(prefix + ".replays_started",
            [&s] { return s.replaysStarted; });
    reg.add(prefix + ".replay_prefetches",
            [&s] { return s.replayPrefetches; });
    reg.add(prefix + ".records_truncated",
            [&s] { return s.recordsTruncated; });
    reg.add(prefix + ".metadata_read_bytes",
            [&s] { return s.metadataReadBytes; });
    reg.add(prefix + ".metadata_write_bytes",
            [&s] { return s.metadataWriteBytes; });
    reg.add(prefix + ".dynamic_bundles",
            [&s] { return s.dynamicBundles; });
    // Per-Bundle-execution sums (trackBundleStats): a mean over any
    // interval is a ratio of two deltas.
    reg.add(prefix + ".bundle_executions",
            [&s] { return s.bundleExecutions; });
    reg.add(prefix + ".bundle_exec_insts_sum",
            [&s] { return s.bundleExecInstsSum; });
    reg.add(prefix + ".bundle_exec_cycles_sum",
            [&s] { return s.bundleExecCyclesSum; });
    reg.add(prefix + ".bundle_footprint_blocks_sum",
            [&s] { return s.bundleFootprintBlocksSum; });
    reg.add(prefix + ".bundle_jaccard_samples",
            [&s] { return s.bundleJaccardSamples; });
    reg.add(prefix + ".bundle_jaccard_sum_ppm",
            [&s] { return s.bundleJaccardSumPpm; });
}

void
HierarchicalPrefetcher::onCommit(const DynInst &inst, std::uint64_t n,
                                 Cycle now)
{
    if (inst.tagged && (isCall(inst.kind) || inst.kind == InstKind::Return))
        bundleBoundary(inst, now);

    if (!recording_)
        return;

    // The block logic sees the count as of the first instruction (a
    // segment advance stamps it); the rest of a run lies in the same
    // block and only adds to it.
    ++recordInsts_;
    Addr block = blockAlign(inst.pc);
    if (block != lastBlock_) {
        lastBlock_ = block;
        if (auto evicted = compression_.touch(block))
            appendRegion(*evicted, now);
        if (config_.trackBundleStats)
            noteFootprint(block);
    }
    recordInsts_ += n - 1;
}

void
HierarchicalPrefetcher::noteFootprint(Addr block)
{
    if (curBlockSet_.insert(block).second)
        curBlocks_.push_back(block);
}

void
HierarchicalPrefetcher::clearFootprint()
{
    // Erase key by key: clear() would sweep the whole slot array,
    // which the largest Bundle sized, at every Bundle boundary.
    for (Addr block : curBlocks_)
        curBlockSet_.erase(block);
    curBlocks_.clear();
}

void
HierarchicalPrefetcher::configureTenants(unsigned count, bool partition)
{
    tenantPartitioned_ = partition && count > 1;
    if (!tenantPartitioned_)
        return;
    buffer_.setPartitions(count);
    table_.setWayPartitions(count);
}

void
HierarchicalPrefetcher::onContextSwitch(unsigned tenant)
{
    // The in-flight record and replay are per-schedule transients of
    // the outgoing tenant; the incoming tenant starts clean at its
    // next Bundle boundary. Discard, don't end: the partial record's
    // already-written segments stay consistent (the chain terminates
    // wherever it reached) and are reclaimed or superseded later.
    compression_.flush();
    recording_ = false;
    recordHead_ = kNoSeg;
    recordCur_ = kNoSeg;
    supersedeNext_ = kNoSeg;
    recordSegments_ = 0;
    recordInsts_ = 0;
    lastBlock_ = ~Addr(0);
    clearFootprint();
    replay_.clear();
    replayPos_ = 0;
    replayIssued_.clear();

    if (tenantPartitioned_) {
        buffer_.setActiveTenant(tenant);
        table_.setActiveTenant(tenant);
    } else {
        // Unpartitioned: the switch flushes the shared MAT, exactly
        // the consolidation thrash the experiment measures.
        stats_.matInvalidations += table_.invalidateAll();
    }
}

void
HierarchicalPrefetcher::bundleBoundary(const DynInst &inst, Cycle now)
{
    ++stats_.taggedCommits;

    endRecord(now);

    BundleId id = bundleIdFor(inst.nextFetchPc());
    ++stats_.bundlesStarted;
    HP_EMIT(eventSink(), emit(EventKind::BundleBoundary, now,
                              blockAlign(inst.pc), 0, id));

    // Replay must look up the table *before* record allocation can
    // disturb it.
    auto head = table_.lookup(id);
    if (head && buffer_.ownedBy(*head, id)) {
        ++stats_.matHits;
        beginReplay(*head, now);
    } else {
        ++stats_.matMisses;
        // A stale pointer (record reclaimed by buffer wraparound)
        // behaves like a miss.
        head.reset();
    }

    beginRecord(id, now);
    recordStartCycle_ = now;
}

void
HierarchicalPrefetcher::endRecord(Cycle now)
{
    if (!recording_)
        return;

    HP_EMIT(eventSink(), emitSpan(EventKind::BundleRecord,
                                  recordStartCycle_, now, 0, recordId_));

    for (const SpatialRegion &region : compression_.flush())
        appendRegion(region, now);

    // Terminate the chain at the current segment: a superseding record
    // that came out shorter strands the old tail, which the circular
    // allocator reclaims eventually — exactly the implicit-linked-list
    // behaviour of the in-memory buffer.
    if (recordCur_ != kNoSeg)
        buffer_.seg(recordCur_).next = kNoSeg;

    // Header writeback for the final segment.
    memory_.metadataWrite(kSegmentHeaderBytes, now);
    stats_.metadataWriteBytes += kSegmentHeaderBytes;

    if (config_.trackBundleStats) {
        ++stats_.bundleExecutions;
        stats_.bundleExecInstsSum += recordInsts_;
        stats_.bundleExecCyclesSum += now - recordStartCycle_;

        std::sort(curBlocks_.begin(), curBlocks_.end());
        const std::vector<Addr> &cur = curBlocks_;
        stats_.bundleFootprintBlocksSum += cur.size();

        std::vector<Addr> *prev_blocks = prevFootprint_.find(recordId_);
        if (prev_blocks && !cur.empty()) {
            std::size_t inter = 0;
            const std::vector<Addr> &prev = *prev_blocks;
            std::size_t i = 0, j = 0;
            while (i < prev.size() && j < cur.size()) {
                if (prev[i] < cur[j]) {
                    ++i;
                } else if (prev[i] > cur[j]) {
                    ++j;
                } else {
                    ++inter;
                    ++i;
                    ++j;
                }
            }
            // Each sample adds inter / uni in millionths, rounded half
            // up, so the sum moves by whole steps.
            std::size_t uni = prev.size() + cur.size() - inter;
            if (uni > 0) {
                ++stats_.bundleJaccardSamples;
                stats_.bundleJaccardSumPpm +=
                    (std::uint64_t(inter) * 1'000'000 + uni / 2) / uni;
            }
        }
        if (!prev_blocks) {
            ++stats_.dynamicBundles;
            prev_blocks = &prevFootprint_[recordId_];
        }
        prev_blocks->assign(cur.begin(), cur.end());
        clearFootprint();
    }

    recording_ = false;
}

void
HierarchicalPrefetcher::beginRecord(BundleId id, Cycle now)
{
    recordId_ = id;
    recordInsts_ = 0;
    recordSegments_ = 0;
    lastBlock_ = ~Addr(0);
    clearFootprint();

    auto head = table_.lookup(id);
    if (head && buffer_.ownedBy(*head, id) &&
        config_.supersedeRecords) {
        // Supersede the existing record in place.
        recordHead_ = *head;
        recordCur_ = recordHead_;
        Segment &seg = buffer_.seg(recordCur_);
        supersedeNext_ = seg.next;
        seg.regions.clear();
        seg.numInsts = 0;
        ++recordSegments_;
    } else if (head && buffer_.ownedBy(*head, id)) {
        // Accumulation ablation: append the new execution after the
        // existing chain instead of replacing it.
        recordHead_ = *head;
        recordCur_ = recordHead_;
        unsigned chain_len = 1;
        while (buffer_.seg(recordCur_).next != kNoSeg &&
               buffer_.ownedBy(buffer_.seg(recordCur_).next, id) &&
               chain_len < config_.maxSegmentsPerBundle) {
            recordCur_ = buffer_.seg(recordCur_).next;
            ++chain_len;
        }
        supersedeNext_ = kNoSeg;
        recordSegments_ = chain_len;
    } else {
        auto [idx, invalidated] = buffer_.allocate(id, /*head=*/true);
        if (invalidated) {
            table_.invalidate(*invalidated);
            ++stats_.matInvalidations;
        }
        ++stats_.segmentsAllocated;
        HP_EMIT(eventSink(), emit(EventKind::SegmentAllocated, now, 0,
                                  0, idx));
        recordHead_ = idx;
        recordCur_ = idx;
        supersedeNext_ = kNoSeg;
        ++recordSegments_;
        table_.insert(id, recordHead_);
    }

    memory_.metadataWrite(kSegmentHeaderBytes, now);
    stats_.metadataWriteBytes += kSegmentHeaderBytes;
    recording_ = true;
}

void
HierarchicalPrefetcher::advanceRecordSegment(Cycle now)
{
    Segment &cur = buffer_.seg(recordCur_);

    SegIdx next;
    if (supersedeNext_ != kNoSeg &&
        buffer_.ownedBy(supersedeNext_, recordId_)) {
        // Reuse the next segment of the superseded chain.
        next = supersedeNext_;
        Segment &reused = buffer_.seg(next);
        supersedeNext_ = reused.next;
        reused.regions.clear();
        reused.headOfBundle = false;
        reused.next = kNoSeg;
    } else {
        supersedeNext_ = kNoSeg;
        auto [idx, invalidated] = buffer_.allocate(recordId_,
                                                   /*head=*/false);
        if (invalidated) {
            table_.invalidate(*invalidated);
            ++stats_.matInvalidations;
        }
        ++stats_.segmentsAllocated;
        HP_EMIT(eventSink(), emit(EventKind::SegmentAllocated, now, 0,
                                  0, idx));
        next = idx;
    }

    cur.next = next;
    Segment &fresh = buffer_.seg(next);
    // Pacing checkpoint: replay of the segment after this one starts
    // once the Bundle has retired this many instructions.
    fresh.numInsts = recordInsts_;
    recordCur_ = next;
    ++recordSegments_;

    memory_.metadataWrite(kSegmentHeaderBytes, now);
    stats_.metadataWriteBytes += kSegmentHeaderBytes;
}

void
HierarchicalPrefetcher::appendRegion(const SpatialRegion &region, Cycle now)
{
    if (!recording_ || recordCur_ == kNoSeg)
        return;
    if (recordSegments_ > config_.maxSegmentsPerBundle) {
        ++stats_.recordsTruncated;
        return;
    }

    Segment *cur = &buffer_.seg(recordCur_);
    if (cur->full()) {
        if (recordSegments_ == config_.maxSegmentsPerBundle) {
            ++recordSegments_;
            ++stats_.recordsTruncated;
            return;
        }
        advanceRecordSegment(now);
        cur = &buffer_.seg(recordCur_);
    }
    cur->regions.push_back(region);
    ++stats_.regionsRecorded;
    HP_EMIT(eventSink(), emit(EventKind::CompressionFlush, now,
                              region.blockAt(0), 0, region.bits));

    memory_.metadataWrite(kRegionEncodedBytes, now);
    stats_.metadataWriteBytes += kRegionEncodedBytes;
}

void
HierarchicalPrefetcher::beginReplay(SegIdx head, Cycle now)
{
    // Snapshot the chain contents up front. In hardware the replay
    // reads race ahead of the superseding record's writes (the record
    // trails execution by the Compression Buffer depth while replay
    // runs ahead of execution), so reading the pre-supersede contents
    // is the common case; snapshotting models it without simulating
    // the byte-level race. Latency is still charged per segment read.
    replay_.clear();
    replayPos_ = 0;
    replayIssued_.clear();

    // Walk the chain and snapshot each segment.
    std::vector<const Segment *> chain;
    SegIdx idx = head;
    BundleId owner = buffer_.seg(head).owner;
    while (idx != kNoSeg && buffer_.ownedBy(idx, owner) &&
           chain.size() < config_.maxSegmentsPerBundle) {
        chain.push_back(&buffer_.seg(idx));
        idx = chain.back()->next;
    }

    // Pacing (Section 5.3.5): segment N+1 becomes eligible once the
    // Bundle has retired the num-insts checkpoint recorded for segment
    // N, and its regions stream out across segment N's execution
    // window — the region FIFO feeds the prefetch engine at roughly
    // the pace the core consumes the previous segment. The first
    // segment(s) are issued immediately at Bundle start.
    Cycle chain_ready = now;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        ReplaySegment rs;
        rs.regions = chain[i]->regions;
        rs.immediate = i == 0;
        rs.gateInsts =
            (i < config_.aheadSegments) ? 0 : chain[i - 1]->numInsts;
        rs.paceStart = (i == 0) ? 0 : chain[i - 1]->numInsts;
        rs.paceEnd = chain[i]->numInsts;
        if (rs.paceEnd < rs.paceStart)
            rs.paceEnd = rs.paceStart;
        // Sequential chain walk: each segment's read depends on the
        // previous segment's next pointer.
        Cycle fetch_start = chain_ready;
        chain_ready = memory_.metadataRead(kSegmentEncodedBytes,
                                           chain_ready);
        rs.readyAt = chain_ready;
        stats_.metadataReadBytes += kSegmentEncodedBytes;
        HP_EMIT(eventSink(), emitSpan(EventKind::SegmentFetch,
                                      fetch_start, chain_ready, 0, i));
        replay_.push_back(std::move(rs));
    }

    if (!replay_.empty()) {
        ++stats_.replaysStarted;
        HP_EMIT(eventSink(), emit(EventKind::ReplayStart, now, 0, 0,
                                  replay_.size()));
    }
}

bool
HierarchicalPrefetcher::gateOpen(const ReplaySegment &rs) const
{
    return recordInsts_ >= rs.gateInsts;
}

bool
HierarchicalPrefetcher::regionIssuable(const ReplaySegment &rs) const
{
    if (config_.subSegmentPacing && !rs.immediate) {
        // Stream regions across the previous segment's execution
        // window.
        std::uint64_t span = rs.paceEnd - rs.paceStart;
        std::uint64_t sub_gate = rs.paceStart +
            span * rs.cursor / rs.regions.size();
        if (recordInsts_ < sub_gate)
            return false;
    }
    return queueDepth() + kRegionBlocks <= maxQueue();
}

void
HierarchicalPrefetcher::tick(Cycle now)
{
    // Issue replay regions whose metadata has arrived, whose segment
    // gate has opened, and whose sub-segment pacing point has been
    // reached; leave queue room for a region's worth of blocks.
    while (replayPos_ < replay_.size()) {
        ReplaySegment &rs = replay_[replayPos_];
        if (now < rs.readyAt || !gateOpen(rs))
            return;

        while (rs.cursor < rs.regions.size()) {
            if (!regionIssuable(rs))
                return;

            const SpatialRegion &region = rs.regions[rs.cursor];
            std::uint32_t bits = region.bits;
            while (bits) {
                unsigned bit = __builtin_ctz(bits);
                bits &= bits - 1;
                Addr block = region.blockAt(bit);
                if (config_.replayDedup &&
                    !replayIssued_.insert(block).second) {
                    continue;
                }
                push(block);
                ++stats_.replayPrefetches;
            }
            ++rs.cursor;
        }
        ++replayPos_;
    }
}

Cycle
HierarchicalPrefetcher::nextTickAt(Cycle now) const
{
    // tick() acts on the current segment once its metadata arrives,
    // if the gate, the pacing point and the queue room already allow
    // it. Those move only with commits and queue pops, after which
    // the loop asks again.
    if (replayPos_ >= replay_.size())
        return kNever;
    const ReplaySegment &rs = replay_[replayPos_];
    if (!gateOpen(rs) ||
        (rs.cursor < rs.regions.size() && !regionIssuable(rs)))
        return kNever;
    return std::max(now, rs.readyAt);
}

template <class Ar>
void
HierarchicalPrefetcher::serializeState(Ar &ar)
{
    compression_.serializeState(ar);
    buffer_.serializeState(ar);
    table_.serializeState(ar);
    io(ar, recording_);
    io(ar, recordId_);
    io(ar, recordHead_);
    io(ar, recordCur_);
    if constexpr (Ar::loading) {
        // endRecord and appendRegion write through recordCur_.
        const SegIdx segments = SegIdx(buffer_.numSegments());
        if ((recordHead_ != kNoSeg && recordHead_ >= segments) ||
            (recordCur_ != kNoSeg && recordCur_ >= segments)) {
            ar.markFailed("hierarchical prefetcher: the record names a "
                          "segment past its buffer");
            recordHead_ = recordCur_ = kNoSeg;
        }
    }
    io(ar, supersedeNext_);
    io(ar, recordSegments_);
    io(ar, recordInsts_);
    io(ar, recordStartCycle_);
    io(ar, lastBlock_);
    io(ar, replay_);
    io(ar, replayPos_);
    io(ar, replayIssued_);
    io(ar, prevFootprint_);
    io(ar, curBlocks_);
    if constexpr (Ar::loading) {
        curBlockSet_.clear();
        for (Addr block : curBlocks_) {
            if (!curBlockSet_.insert(block).second)
                ar.markFailed("hierarchical prefetcher: a block is "
                              "twice in the current footprint");
        }
    }
}

template void HierarchicalPrefetcher::serializeState(StateWriter &);
template void HierarchicalPrefetcher::serializeState(StateLoader &);

} // namespace hp
