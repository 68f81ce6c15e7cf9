#include "sim/simulator.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

namespace
{

/** Instruction @p i of the window run that starts with @p first
 *  (i > 0): plain, with first's func and no marker. */
DynInst
follower(const DynInst &first, std::uint64_t i)
{
    DynInst inst;
    inst.pc = first.pc + i * kInstBytes;
    inst.func = first.func;
    return inst;
}

} // namespace

const char *
prefetcherName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None: return "FDIP";
      case PrefetcherKind::EFetch: return "EFetch";
      case PrefetcherKind::Mana: return "MANA";
      case PrefetcherKind::Eip: return "EIP";
      case PrefetcherKind::Rdip: return "RDIP";
      case PrefetcherKind::Hierarchical: return "Hierarchical";
      case PrefetcherKind::PerfectL1I: return "PerfectL1I";
    }
    return "?";
}

std::unique_ptr<Prefetcher>
makePrefetcher(const SimConfig &config, MetadataMemory &memory)
{
    switch (config.prefetcher) {
      case PrefetcherKind::EFetch:
        return std::make_unique<EFetch>(config.efetch);
      case PrefetcherKind::Mana:
        return std::make_unique<Mana>(config.mana);
      case PrefetcherKind::Eip:
        return std::make_unique<Eip>(config.eip);
      case PrefetcherKind::Rdip:
        return std::make_unique<Rdip>(config.rdip);
      case PrefetcherKind::Hierarchical:
        return std::make_unique<HierarchicalPrefetcher>(config.hier,
                                                        memory);
      case PrefetcherKind::None:
      case PrefetcherKind::PerfectL1I:
        return nullptr;
    }
    return nullptr;
}

Simulator::Simulator(const SimConfig &config)
    : Simulator(config, CoreInit{})
{}

Simulator::TenantRt
Simulator::makeTenant(const std::string &name)
{
    TenantRt t;
    if (name == "@scenario") {
        fatalIf(cfg_.scenario.empty(),
                "tenant '@scenario' without a scenario spec");
        t.scenEngine = std::make_unique<ScenarioEngine>(
            cachedScenario(cfg_.scenario));
        // The first service is the scenario's primary: its profile
        // supplies the data-DRAM model.
        t.profile =
            &appProfile(scenarioPrimaryProfile(t.scenEngine->scenario()));
    } else {
        t.profile = &appProfile(name);
        t.engine = std::make_unique<RequestEngine>(
            ProgramBuilder::cached(*t.profile), *t.profile);
    }
    return t;
}

Simulator::Simulator(const SimConfig &config, const CoreInit &init)
    : cfg_(config),
      switchQuantum_(init.switchQuantum),
      partitionMetadata_(init.partitionMetadata),
      hier_(config.mem, init.shared),
      btb_(config.btbEntries, config.btbWays),
      ras_(config.rasDepth)
{
    // Front-end and back-end widths and depths the detailed loop
    // needs to make progress: each of these at 0 (or a fetch width
    // below one instruction) stops the pipeline for good.
    fatalIf(cfg_.commitWidth == 0, "commitWidth must be positive");
    fatalIf(cfg_.fetchBytesPerCycle < kInstBytes,
            "fetchBytesPerCycle must fetch at least one instruction (" +
                std::to_string(kInstBytes) + " bytes)");
    fatalIf(cfg_.bpBlocksPerCycle == 0, "bpBlocksPerCycle must be positive");
    fatalIf(cfg_.ftqEntries == 0, "ftqEntries must be positive");
    fatalIf(cfg_.robEntries == 0, "robEntries must be positive");
    // A BTB-missed branch must resume prediction before it can commit.
    fatalIf(cfg_.btbMissPenalty > cfg_.pipelineDepth,
            "btbMissPenalty (" + std::to_string(cfg_.btbMissPenalty) +
                ") must not exceed pipelineDepth (" +
                std::to_string(cfg_.pipelineDepth) + ")");

    if (init.tenants.empty()) {
        // Classic single-core run: one implicit tenant from the
        // config's own workload (or scenario spec).
        tenants_.push_back(
            makeTenant(cfg_.scenario.empty() ? cfg_.workload
                                             : "@scenario"));
    } else {
        fatalIf(init.tenants.size() > 1 &&
                    std::find(init.tenants.begin(), init.tenants.end(),
                              "@scenario") != init.tenants.end(),
                "'@scenario' must be a core's sole tenant: the latency "
                "tracker cannot pair begin/end across switch squashes");
        for (const std::string &name : init.tenants)
            tenants_.push_back(makeTenant(name));
    }
    bindTenant(0);
    if (tenants_.size() > 1 && switchQuantum_ > 0)
        nextSwitchAt_ = switchQuantum_;

    perfect_ = cfg_.prefetcher == PrefetcherKind::PerfectL1I;
    pf_ = makePrefetcher(cfg_, hier_);
    hierPf_ = dynamic_cast<HierarchicalPrefetcher *>(pf_.get());
    if (hierPf_ && tenants_.size() > 1)
        hierPf_->configureTenants(unsigned(tenants_.size()),
                                  partitionMetadata_);
    if (cfg_.trackReuse)
        reuseHist_ = std::make_unique<Histogram>(64.0, 4096);
    registerStats();

    // Observability wiring (after registerStats: the sampler reads
    // registered paths). All of this stays inert — null sink, disabled
    // attribution, no sampler — unless obs::config() asks for it.
    const obs::ObsConfig &ocfg = obs::config();
    if (ocfg.traceEnabled()) {
        obs_ = std::make_unique<EventSink>(ocfg.traceCapacity);
        hier_.setEventSink(obs_.get());
        if (pf_)
            pf_->setEventSink(obs_.get());
    }
    if (ocfg.attributionEnabled())
        hier_.enableMissAttribution();
    if (ocfg.timeseriesEnabled()) {
        sampler_ = std::make_unique<IntervalSampler>(
            registry_, ocfg.intervalInsts);
    }
    // Request spans need a scenario stream (the Request{Begin,End}
    // markers); "@scenario" is always a core's sole tenant, so a
    // non-null scenEngine_ here is stable across the whole run.
    if (ocfg.spansEnabled() && scenEngine_) {
        std::vector<std::pair<std::string, std::string>> chains;
        for (const ChainSpec &chain : scenEngine_->scenario().chains) {
            std::string walk;
            for (const std::string &svc : chain.services) {
                if (!walk.empty())
                    walk += ',';
                walk += svc;
            }
            chains.emplace_back(chain.name, std::move(walk));
        }
        spanTracker_ = std::make_unique<obs::RequestSpanTracker>(
            registry_, std::move(chains), ocfg.spanReservoir,
            obs_.get());
    }
}

void
Simulator::bindTenant(unsigned i)
{
    activeTenant_ = i;
    TenantRt &t = tenants_[i];
    engine_ = t.engine.get();
    scenEngine_ = t.scenEngine.get();
    stream_ = scenEngine_ ? static_cast<InstStream *>(scenEngine_)
                          : static_cast<InstStream *>(engine_);
}

void
Simulator::contextSwitch()
{
    ++contextSwitches_;
    bindTenant((activeTenant_ + 1) % unsigned(tenants_.size()));
    HP_EMIT(obs_.get(),
            emit(EventKind::ContextSwitch, cycle_, /*addr=*/0,
                 /*dur=*/0, /*arg=*/contextSwitches_,
                 static_cast<std::uint8_t>(
                     activeTenant_ < 0xff ? activeTenant_ : 0xff)));

    // The switch squashes the decoupled front end (kernel entry is a
    // pipeline flush) and the incoming tenant's working set evicts
    // the core-private instruction state wholesale: L1-I, I-TLB, and
    // any queued prefetches are gone when this tenant runs again.
    resyncFrontEnd();
    hier_.l1i().invalidateAll();
    hier_.itlb().flush();
    if (pf_) {
        Addr req;
        while (pf_->popRequest(req)) {}
    }
    // Metadata: partitioned tenants keep their MB quota range and MAT
    // ways across quanta; unpartitioned, the shared MAT is flushed
    // (records in the MB survive, but must be re-discovered).
    if (hierPf_)
        hierPf_->onContextSwitch(activeTenant_);
    nextSwitchAt_ += switchQuantum_;
}

Simulator::~Simulator()
{
    // Runs torn down without an endMeasurement (a warmup-only
    // simulator, a sampling scout) still hand over what they captured.
    flushObs();
}

void
Simulator::flushObs()
{
    if ((!obs_ || obs_->size() == 0) &&
        (!sampler_ || sampler_->rows().empty()))
        return;

    obs::RunCapture cap;
    cap.label = cfg_.workload + "/" + prefetcherName(cfg_.prefetcher);
    if (obs_) {
        cap.eventsDropped = obs_->dropped();
        cap.events = obs_->drain();
    }
    if (sampler_) {
        cap.tsInterval = sampler_->interval();
        cap.samples = sampler_->takeRows();
    }
    obs::Collector::addRun(std::move(cap));
}

void
Simulator::registerStats()
{
    registry_.add("sim.cycles", [this] { return cycle_; });
    registry_.add("sim.instructions", [this] { return committed_; });
    registry_.add("sim.committed", [this] { return committed_; });
    registry_.add("sim.fetch_stall_cycles",
                  [this] { return fetchStallCycles_; });
    registry_.add("sim.backend_stall_cycles",
                  [this] { return backendStallCycles_; });
    registry_.add("sim.ras_mispredicts",
                  [this] { return rasMispredicts_; });
    registry_.add("sim.long_range_accesses",
                  [this] { return longRangeAccesses_; });
    registry_.add("sim.long_range_l2_misses",
                  [this] { return longRangeL2Misses_; });
    registry_.add("sim.context_switches",
                  [this] { return contextSwitches_; });

    hier_.registerStats(registry_);
    btb_.registerStats(registry_, "btb");
    condPred_.registerStats(registry_, "cond");
    indirectPred_.registerStats(registry_, "indirect");
    ras_.registerStats(registry_, "ras");
    if (tenants_.size() == 1) {
        if (scenEngine_)
            scenEngine_->registerStats(registry_);
        else
            engine_->registerStats(registry_, "engine");
    } else {
        // Multi-tenant core: engine.* keeps its meaning as the
        // core's emitted stream by summing over the tenants (the
        // per-engine closure-over-fields idiom can't follow the
        // active tenant across switches).
        auto sum = [this](std::uint64_t EngineStats::*field) {
            std::uint64_t total = 0;
            for (const TenantRt &t : tenants_)
                total += t.engine->stats().*field;
            return total;
        };
        registry_.add("engine.instructions",
                      [sum] { return sum(&EngineStats::instructions); });
        registry_.add("engine.requests",
                      [sum] { return sum(&EngineStats::requests); });
        registry_.add("engine.calls",
                      [sum] { return sum(&EngineStats::calls); });
        registry_.add("engine.returns",
                      [sum] { return sum(&EngineStats::returns); });
        registry_.add("engine.cond_branches",
                      [sum] { return sum(&EngineStats::condBranches); });
        registry_.add("engine.tagged_insts",
                      [sum] { return sum(&EngineStats::taggedInsts); });
    }
    // The Hierarchical Prefetcher claims its paper scope "hier";
    // every other prefetcher registers under the generic "pf".
    if (pf_)
        pf_->registerStats(registry_, hierPf_ ? "hier" : "pf");
}

void
Simulator::appendRun(const DynInst &first, std::uint64_t n)
{
    pullSeq_ += n;
    if (!window_.empty()) {
        Run &back = window_.back();
        if (back.first.kind == InstKind::Plain &&
            blockAlign(first.pc) == blockAlign(back.first.pc) &&
            first == follower(back.first, back.n)) {
            back.n += n;
            return;
        }
    }
    window_.push_back({first, n});
}

Addr
Simulator::windowEndPc() const
{
    const Run &back = window_.back();
    return isControl(back.first.kind)
        ? back.first.nextFetchPc()
        : back.first.pc + back.n * kInstBytes;
}

void
Simulator::pull(std::uint64_t max, Addr pc)
{
    DynInst first;
    const std::uint64_t n = stream_->next(first, max);
    panicIf(n == 0, "workload stream ended unexpectedly");
    panicIf(pc != kNever && first.pc != pc,
            "workload stream is not contiguous");
    appendRun(first, n);
}

void
Simulator::stepPredict()
{
    for (unsigned pushes = 0; pushes < cfg_.bpBlocksPerCycle; ++pushes) {
        if (feBlock_ != FeBlock::None)
            return;
        if (ftq_.size() >= cfg_.ftqEntries)
            return;

        // Build one fetch block: consecutive instructions in the same
        // cache block, ending at a taken control transfer. The walk
        // goes run by run and pulls exactly what the instruction-by-
        // instruction walk would (pull-ahead is an observable engine
        // stat): the rest of the block, and one instruction into the
        // next block when the walk reaches it. bpSeq_ is the back
        // run's last instruction (that look-ahead), or the next pull.
        if (bpSeq_ == pullSeq_) {
            if (window_.empty()) {
                pull(1, kNever);
            } else {
                const Addr pc = windowEndPc();
                pull((blockAlign(pc) + kBlockBytes - pc) / kInstBytes, pc);
            }
        }
        const std::uint64_t seq = bpSeq_;
        const Addr block = blockAlign(window_.back().first.pc);
        std::uint64_t end = seq;
        FeBlock blocker = FeBlock::None;

        while (true) {
            const DynInst &inst = window_.back().first;
            Addr next_pc;
            if (!isControl(inst.kind)) {
                // Plain instructions need no prediction: take the rest
                // of the run.
                end = pullSeq_;
                next_pc = inst.pc + window_.back().n * kInstBytes;
            } else {
                ++end;
                switch (inst.kind) {
                  case InstKind::CondBranch: {
                    bool predicted = condPred_.predict(inst.pc);
                    condPred_.update(inst.pc, inst.taken);
                    if (predicted != inst.taken) {
                        blocker = FeBlock::Mispredict;
                    } else if (inst.taken) {
                        if (!btb_.lookup(inst.pc))
                            blocker = FeBlock::BtbMiss;
                    }
                    break;
                  }
                  case InstKind::Jump:
                  case InstKind::Call: {
                    if (inst.kind == InstKind::Call)
                        ras_.push(inst.nextPc());
                    if (!btb_.lookup(inst.pc))
                        blocker = FeBlock::BtbMiss;
                    break;
                  }
                  case InstKind::IndirectJump:
                  case InstKind::IndirectCall: {
                    if (inst.kind == InstKind::IndirectCall)
                        ras_.push(inst.nextPc());
                    Addr predicted = indirectPred_.predict(inst.pc);
                    indirectPred_.update(inst.pc, inst.target);
                    if (predicted != inst.target)
                        blocker = FeBlock::Mispredict;
                    break;
                  }
                  case InstKind::Return: {
                    Addr predicted = ras_.pop();
                    if (predicted != inst.target) {
                        blocker = FeBlock::Mispredict;
                        ++rasMispredicts_;
                    }
                    break;
                  }
                  default:
                    break;
                }

                // Any taken transfer ends the fetch block; a blocker
                // stalls the prediction unit at this instruction.
                if (blocker != FeBlock::None || inst.taken)
                    break;
                next_pc = inst.nextPc();
            }

            if (blockAlign(next_pc) != block) {
                // The walk reached the next block: pull its first
                // instruction, which the next push starts from.
                pull(1, next_pc);
                break;
            }
            pull((block + kBlockBytes - next_pc) / kInstBytes, next_pc);
        }

        FtqEntry entry;
        entry.block = block;
        entry.startSeq = seq;
        entry.endSeq = end;
        ftq_.push_back(entry);
        bpSeq_ = end;

        // FDIP: prefetch the new FTQ block.
        if (!perfect_) {
            hier_.prefetch(block, Origin::Fdip, cycle_);
            if (pf_)
                pf_->onFdipPrefetch(block, cycle_);
        }

        if (blocker != FeBlock::None) {
            feBlock_ = blocker;
            feBlockSeq_ = end - 1;
            feResumeScheduled_ = false;
            feBlockStart_ = cycle_;
            return;
        }
    }
}

void
Simulator::stepExtPrefetch()
{
    // Caller guarantees pf_ != nullptr (check hoisted out of the
    // per-cycle loop). The Hierarchical tick is called through the
    // concrete final type so it devirtualizes; tick is a no-op for
    // the other prefetchers.
    if (hierPf_)
        hierPf_->tick(cycle_);
    else
        pf_->tick(cycle_);
    Addr block;
    for (unsigned i = 0; i < cfg_.extPrefetchesPerCycle; ++i) {
        // Back-pressure: keep requests queued while the MSHRs are
        // saturated instead of dropping them.
        if (hier_.freeMshrs() <= cfg_.mem.mshrsReservedForDemand)
            return;
        if (!pf_->popRequest(block))
            return;
        hier_.prefetch(block, Origin::Ext, cycle_,
                       cfg_.extPrefetchToL2);
    }
}

void
Simulator::stepFetch()
{
    if (cycle_ < fetchStalledUntil_)
        return;

    unsigned budget = cfg_.fetchBytesPerCycle / kInstBytes;
    while (budget > 0) {
        if (ftq_.empty())
            return;
        // ROB occupancy limit.
        if (fetchSeq_ - windowBase_ >= cfg_.robEntries)
            return;

        FtqEntry &entry = ftq_.front();

        if (!entry.translated) {
            hier_.noteFetchBlock();
            if (!perfect_) {
                Cycle walk = hier_.itlb().translate(entry.block);
                entry.translated = true;
                if (walk > 0) {
                    fetchStalledUntil_ = cycle_ + walk;
                    HP_EMIT(obs_.get(),
                            emitSpan(EventKind::ItlbWalk, cycle_,
                                     cycle_ + walk, entry.block));
                    return;
                }
            } else {
                entry.translated = true;
            }
        }

        if (!entry.accessed) {
            if (perfect_) {
                entry.accessed = true;
            } else {
                DemandResult res = hier_.demandAccess(entry.block,
                                                      cycle_);
                if (res.retry)
                    return;
                entry.accessed = true;
                if (pf_) {
                    Cycle lat = res.readyAt > cycle_
                        ? res.readyAt - cycle_ : 0;
                    pf_->onDemandAccess(entry.block,
                                        res.level == ServiceLevel::L1,
                                        cycle_, lat);
                }
                if (cfg_.trackReuse) {
                    std::uint64_t dist = reuse_.access(entry.block);
                    if (dist != ReuseDistanceTracker::kColdAccess) {
                        if (!measuring()) {
                            reuseHist_->sample(double(dist));
                        } else if (double(dist) >= longRangeThreshold_) {
                            ++longRangeAccesses_;
                            if (res.level == ServiceLevel::Llc ||
                                res.level == ServiceLevel::Mem) {
                                ++longRangeL2Misses_;
                            }
                        }
                    }
                }
                if (res.level != ServiceLevel::L1) {
                    fetchStalledUntil_ = res.readyAt;
                    HP_EMIT(obs_.get(),
                            emitSpan(EventKind::FetchStall, cycle_,
                                     res.readyAt, entry.block));
                    if (res.readyAt > cycle_)
                        fetchStallCycles_ += res.readyAt - cycle_;
                    return;
                }
            }
        }

        // Consume instructions from this entry as one span, into this
        // cycle's fetch group.
        if (fetchSeq_ < entry.endSeq) {
            const std::uint64_t n = std::min<std::uint64_t>(
                budget, entry.endSeq - fetchSeq_);
            fetchSeq_ += n;
            budget -= unsigned(n);
            if (!fetchGroups_.empty() &&
                fetchGroups_.back().cycle == cycle_)
                fetchGroups_.back().endSeq = fetchSeq_;
            else
                fetchGroups_.push_back({fetchSeq_, cycle_});
        }
        if (fetchSeq_ >= entry.endSeq) {
            // Entry exhausted: a BTB-missed branch at its end resumes
            // the prediction unit after the decode delay.
            if (feBlock_ == FeBlock::BtbMiss &&
                feBlockSeq_ == entry.endSeq - 1 && !feResumeScheduled_) {
                feResumeAt_ = cycle_ + cfg_.btbMissPenalty;
                feResumeScheduled_ = true;
            }
            ftq_.pop_front();
        }
    }
}

bool
Simulator::stallsAt(Addr pc) const
{
    // Idealized back end: a deterministic slice of instructions
    // behaves as long-latency (off-core data) and stalls commit.
    return (mix64(pc * 0x2545f4914f6cdd1dULL) % 1000) <
        cfg_.backendStallPermille;
}

void
Simulator::backendStall(Addr pc)
{
    commitBlockedUntil_ = cycle_ + cfg_.backendStallCycles;
    HP_EMIT(obs_.get(),
            emitSpan(EventKind::BackendStall, cycle_, commitBlockedUntil_,
                     blockAlign(pc)));
    backendStallCycles_ += cfg_.backendStallCycles;
}

bool
Simulator::commitSpan(std::uint64_t limit)
{
    Run &run = window_.front();
    const DynInst first = run.first;

    if (scenEngine_ && first.marker != StreamMarker::None)
        noteCommitMarker(first, /*detailed=*/true);
    // Chain hand-off detection: a span lies in one cache block, so in
    // one service window.
    if (spanTracker_)
        spanTracker_->onCommitPc(first.pc, cycle_);

    // The span ends after the first instruction that blocks commit.
    std::uint64_t k = limit;
    std::uint64_t stall = limit;
    if (cfg_.backendStallPermille > 0) {
        for (std::uint64_t i = 0; i < limit; ++i) {
            if (stallsAt(first.pc + i * kInstBytes)) {
                stall = i;
                break;
            }
        }
        if (stall < limit && cfg_.backendStallCycles > 0)
            k = stall + 1;
    }

    // Hooks in instruction order: the first instruction's stall, the
    // counted commit (only its first instruction can emit), then the
    // stalls of the rest.
    if (stall == 0)
        backendStall(first.pc);
    // Through the concrete final type when it is the Hierarchical
    // Prefetcher, so the per-span call devirtualizes (the same
    // treatment stepExtPrefetch gives tick()).
    if (hierPf_)
        hierPf_->onCommit(first, k, cycle_);
    else if (pf_)
        pf_->onCommit(first, k, cycle_);
    for (std::uint64_t i = std::max<std::uint64_t>(stall, 1); i < k; ++i) {
        if (stallsAt(first.pc + i * kInstBytes))
            backendStall(first.pc + i * kInstBytes);
    }

    // A mispredicted control instruction is a run of one.
    const bool was_blocking_mispredict =
        feBlock_ == FeBlock::Mispredict && feBlockSeq_ == windowBase_;

    if (k == run.n) {
        window_.pop_front();
    } else {
        run.first = follower(first, k);
        run.n -= k;
    }
    windowBase_ += k;
    committed_ += k;

    if (was_blocking_mispredict) {
        // Flush and resteer: the prediction unit resumes after the
        // branch; fetch pays the refill penalty.
        HP_EMIT(obs_.get(),
                emitSpan(EventKind::FtqStallMispredict, feBlockStart_,
                         cycle_, blockAlign(first.pc)));
        ftq_.clear();
        fetchGroups_.clear();
        bpSeq_ = windowBase_;
        fetchSeq_ = windowBase_;
        feBlock_ = FeBlock::None;
        if (isControl(first.kind))
            btb_.update(first.pc, first.target);
        fetchStalledUntil_ = std::max<Cycle>(
            fetchStalledUntil_, cycle_ + cfg_.mispredictPenalty);
        return false; // commit stops at a flush boundary
    }
    return commitBlockedUntil_ <= cycle_;
}

void
Simulator::stepCommit()
{
    if (cycle_ < commitBlockedUntil_)
        return;

    // The ready prefix: the fetch groups at least pipelineDepth cycles
    // old, scanned only as far as this cycle's width reaches.
    const std::uint64_t width_end = windowBase_ + cfg_.commitWidth;
    std::uint64_t ready = windowBase_;
    for (std::size_t g = 0; g < fetchGroups_.size() && ready < width_end;
         ++g) {
        if (cycle_ < fetchGroups_[g].cycle + cfg_.pipelineDepth)
            break;
        ready = fetchGroups_[g].endSeq;
    }
    ready = std::min(ready, width_end);

    // One span per run, each cut short where commit must stop.
    while (windowBase_ < ready &&
           commitSpan(std::min<std::uint64_t>(window_.front().n,
                                              ready - windowBase_))) {
    }
    while (!fetchGroups_.empty() &&
           fetchGroups_.front().endSeq <= windowBase_)
        fetchGroups_.pop_front();
}

void
Simulator::noteCommitMarker(const DynInst &inst, bool detailed)
{
    // The begin/end commit order matches onGenerated's FIFO order
    // because the scenario stream interleaves no two requests.
    if (inst.marker == StreamMarker::RequestBegin) {
        scenEngine_->tracker().onBegin(cycle_, detailed);
        if (spanTracker_)
            spanTracker_->onBegin(cycle_, inst.markerArg, detailed);
    } else if (inst.marker == StreamMarker::RequestEnd) {
        const CompletionInfo done =
            scenEngine_->tracker().onEnd(cycle_, detailed);
        if (spanTracker_) {
            spanTracker_->onEnd(cycle_, done.completed, done.latency,
                                done.service, done.queueing);
        }
    }
}

void
Simulator::beginMeasurement()
{
    measuring_ = true;
    if (scenEngine_)
        scenEngine_->tracker().beginRecording();
    // Anchor the span telescoping at the same instant the registry
    // snapshot below pins, so inSpan + outside partitions the
    // measurement delta exactly.
    if (spanTracker_)
        spanTracker_->beginRecording();

    // The warmup boundary: counters are never reset, so the
    // measurement phase is the end-of-run snapshot minus this one.
    warmupSnapshot_ = registry_.snapshot();

    if (cfg_.trackReuse)
        longRangeThreshold_ = reuseHist_->percentile(
            cfg_.longRangePercentile);
}

void
Simulator::stepCycle()
{
    // Multi-tenant quantum check; nextSwitchAt_ is 0 (never taken)
    // for single-tenant cores.
    if (nextSwitchAt_ != 0 && committed_ >= nextSwitchAt_)
        contextSwitch();
    // Latch the clock for prefetcher-internal emit sites (queue
    // squashes) whose call paths carry no cycle argument.
    if (obs_ && pf_)
        pf_->noteCycle(cycle_);
    hier_.tick(cycle_);
    stepPredict();
    if (pf_)
        stepExtPrefetch();
    stepFetch();
    // BTB-miss resume. The prediction unit stopped at the branch, so
    // it is the window's last instruction (a run of one); it commits
    // no earlier than pipelineDepth >= btbMissPenalty cycles after its
    // fetch scheduled this resume.
    if (feBlock_ == FeBlock::BtbMiss && feResumeScheduled_ &&
        cycle_ >= feResumeAt_) {
        const DynInst &inst = window_.back().first;
        btb_.update(inst.pc, inst.target);
        feBlock_ = FeBlock::None;
        HP_EMIT(obs_.get(), emitSpan(EventKind::FtqStallBtbMiss,
                                     feBlockStart_, cycle_,
                                     blockAlign(inst.pc)));
    }
    stepCommit();
}

void
Simulator::step()
{
    ++steps_;
    cycle_ += owesAdvance_;
    stepCycle();
    if (sampler_)
        sampler_->tick(committed_, measuring());
    owesAdvance_ = true;
}

Cycle
Simulator::nextActiveCycle() const
{
    const Cycle now = cycle_ + owesAdvance_;
    // Work that is ready now: a due context switch, a prediction
    // push, or a prefetch request the MSHRs can take.
    if (nextSwitchAt_ != 0 && committed_ >= nextSwitchAt_)
        return now;
    if (feBlock_ == FeBlock::None && ftq_.size() < cfg_.ftqEntries)
        return now;
    if (pf_ && cfg_.extPrefetchesPerCycle > 0 && pf_->queueDepth() > 0 &&
        hier_.freeMshrs() > cfg_.mem.mshrsReservedForDemand)
        return now;

    // Deadlines: everything else waits for one of these.
    Cycle next = hier_.nextFillAt();
    if (pf_) {
        next = std::min(next, hierPf_ ? hierPf_->nextTickAt(now)
                                      : pf_->nextTickAt(now));
    }
    if (!ftq_.empty() && fetchSeq_ - windowBase_ < cfg_.robEntries)
        next = std::min(next, fetchStalledUntil_);
    if (feBlock_ == FeBlock::BtbMiss && feResumeScheduled_)
        next = std::min(next, feResumeAt_);
    if (!fetchGroups_.empty()) {
        next = std::min(next, std::max<Cycle>(
            commitBlockedUntil_,
            fetchGroups_.front().cycle + cfg_.pipelineDepth));
    }
    return std::max(next, now);
}

void
Simulator::skipTo(Cycle at)
{
    panicIf(at == kNever, "detailed loop has no pending event");
    cycle_ = at - owesAdvance_;
}

Cycle
Simulator::runTo(std::uint64_t target, Cycle limit)
{
    Cycle at = nextActiveCycle();
    for (; committed_ < target && at < limit; at = nextActiveCycle()) {
        skipTo(at);
        step();
    }
    panicIf(committed_ < target && at == kNever,
            "detailed loop has no pending event");
    return at;
}

void
Simulator::runWarmup()
{
    panicIf(measuring(), "runWarmup() after measurement began");
    // A sampled run warms functionally: each window's own detailed
    // warmup re-establishes the timing state (DESIGN.md §10).
    if (warmsFunctionally(cfg_)) {
        fastForward(cfg_.warmupInsts);
        return;
    }
    // Any run with instructions steps at least one cycle, even with a
    // zero-instruction warmup: the measurement then starts from that
    // cycle's boundary exactly like a nonzero one.
    if (cfg_.warmupInsts + cfg_.measureInsts > 0) {
        step();
        runTo(cfg_.warmupInsts);
    }
}

SimMetrics
Simulator::run()
{
    runWarmup();
    return finishRun();
}

SimMetrics
Simulator::finishRun()
{
    const std::uint64_t total = cfg_.warmupInsts + cfg_.measureInsts;
    beginMeasurement();
    runTo(total);
    return endMeasurement(/*pay_advance=*/total > 0);
}

SimMetrics
Simulator::endMeasurement(bool pay_advance)
{
    if (pay_advance) {
        cycle_ += owesAdvance_;
        owesAdvance_ = false;
    }
    if (sampler_)
        sampler_->finalSample(committed_, /*measuring=*/true);

    // Measurement phase = end-of-run snapshot minus the warmup one.
    SimMetrics m = SimMetrics::fromStats(
        StatsSnapshot::delta(registry_.snapshot(), warmupSnapshot_));

    // Data-DRAM model: the mean of the co-scheduled tenants' rates
    // (a sum of one element over 1.0 for the classic path, so the
    // single-tenant arithmetic is bit-identical).
    double bytes_per_kinst = 0.0;
    for (const TenantRt &t : tenants_)
        bytes_per_kinst += t.profile->dataDramBytesPerKiloInst;
    bytes_per_kinst /= double(tenants_.size());
    m.dataDramBytes = static_cast<std::uint64_t>(
        double(m.instructions) / 1000.0 * bytes_per_kinst);

    if (scenEngine_) {
        m.latency = std::make_shared<const LatencyReport>(
            scenEngine_->tracker().report(m.stats));
    }
    if (spanTracker_) {
        // Same instant as the registry snapshot above: no simulation
        // ran in between, so the partition invariant is exact.
        m.tailAttribution =
            std::make_shared<const obs::TailAttribution>(
                spanTracker_->report());
    }

    flushObs();
    return m;
}

void
Simulator::advanceDetailed(std::uint64_t insts)
{
    panicIf(measuring(), "advanceDetailed() after measurement began");
    runTo(committed_ + insts);
}

SimMetrics
Simulator::measureWindow(std::uint64_t insts)
{
    // Accounted like a full measurement phase; a window is terminal
    // for its Simulator instance until the next restore.
    beginMeasurement();
    runTo(committed_ + insts);
    return endMeasurement(/*pay_advance=*/insts > 0);
}

void
Simulator::ffBlock(Addr block)
{
    hier_.noteFetchBlock();
    if (perfect_)
        return;
    hier_.itlb().translate(block);
    const Cycle fill = hier_.functionalTouch(block);
    if (pf_) {
        pf_->onDemandAccess(block, fill == 0, cycle_, fill);
        // Let tick-driven machinery make progress and drain the
        // request queue without MSHR/timing bookkeeping.
        if (hierPf_)
            hierPf_->tick(cycle_);
        else
            pf_->tick(cycle_);
        Addr req;
        while (pf_->popRequest(req))
            hier_.functionalPrefetch(req, Origin::Ext, cfg_.extPrefetchToL2);
    }
    if (cfg_.trackReuse) {
        const std::uint64_t dist = reuse_.access(block);
        if (dist != ReuseDistanceTracker::kColdAccess)
            reuseHist_->sample(double(dist));
    }
}

void
Simulator::ffRun(DynInst inst, std::uint64_t n, Addr &cur_block)
{
    // Split the run at cache-block boundaries: the block work happens
    // once per block, and the commit hook gets each block's share of
    // the run as one count.
    while (true) {
        const Addr block = blockAlign(inst.pc);
        const std::uint64_t in_block = std::min<std::uint64_t>(
            n, (block + kBlockBytes - inst.pc) / kInstBytes);
        if (block != cur_block) {
            cur_block = block;
            ffBlock(block);
        }

        // Predictors train on the architectural path exactly as the
        // prediction unit would train them (predict() must precede
        // update(): it latches the provider entry and the history). A
        // control instruction is always a run of one.
        switch (inst.kind) {
          case InstKind::CondBranch:
            condPred_.predict(inst.pc);
            condPred_.update(inst.pc, inst.taken);
            if (inst.taken && !btb_.lookup(inst.pc))
                btb_.update(inst.pc, inst.target);
            break;
          case InstKind::Jump:
          case InstKind::Call:
            if (inst.kind == InstKind::Call)
                ras_.push(inst.nextPc());
            if (!btb_.lookup(inst.pc))
                btb_.update(inst.pc, inst.target);
            break;
          case InstKind::IndirectJump:
          case InstKind::IndirectCall:
            if (inst.kind == InstKind::IndirectCall)
                ras_.push(inst.nextPc());
            indirectPred_.predict(inst.pc);
            indirectPred_.update(inst.pc, inst.target);
            break;
          case InstKind::Return:
            ras_.pop();
            break;
          case InstKind::Plain:
            break;
        }

        if (hierPf_)
            hierPf_->onCommit(inst, in_block, cycle_);
        else if (pf_)
            pf_->onCommit(inst, in_block, cycle_);

        committed_ += in_block;
        cycle_ += in_block; // synthetic clock: keeps paced components moving
        n -= in_block;
        if (n == 0)
            return;
        inst.pc = block + kBlockBytes;
        inst.marker = StreamMarker::None;
        inst.markerArg = 0;
    }
}

void
Simulator::fastForward(std::uint64_t insts)
{
    panicIf(measuring(), "fastForward() after measurement began");
    if (insts == 0)
        return;

    // Timing state cannot advance without the cycle loop: complete
    // every outstanding fill now so the caches reflect all issued
    // requests and no MSHR survives into the functional segment.
    hier_.drainInFlight();

    const std::uint64_t target = committed_ + insts;
    Addr cur_block = ~Addr(0);

    // First consume what the decoupled front end already pulled past
    // the commit point, then pull runs straight from the engine. What
    // the target leaves of the window, resyncFrontEnd drops.
    while (committed_ < target) {
        DynInst inst;
        std::uint64_t n;
        if (!window_.empty()) {
            inst = window_.front().first;
            n = std::min(window_.front().n, target - committed_);
            window_.pop_front();
        } else {
            n = stream_->next(inst, target - committed_);
            panicIf(n == 0, "workload stream ended unexpectedly");
        }
        if (scenEngine_ && inst.marker != StreamMarker::None)
            noteCommitMarker(inst, /*detailed=*/false);
        ffRun(inst, n, cur_block);
    }

    resyncFrontEnd();
}

void
Simulator::resyncFrontEnd()
{
    // The fast-forward consumed the architectural stream directly, so
    // restart the decoupled front end from the commit point — the
    // same state it has right after a mispredict flush.
    window_.clear();
    fetchGroups_.clear();
    windowBase_ = committed_;
    pullSeq_ = committed_;
    bpSeq_ = committed_;
    fetchSeq_ = committed_;
    ftq_.clear();
    feBlock_ = FeBlock::None;
    feBlockSeq_ = 0;
    feResumeAt_ = 0;
    feResumeScheduled_ = false;
    feBlockStart_ = 0;
    fetchStalledUntil_ = 0;
    commitBlockedUntil_ = 0;
}

const char *
Simulator::checkWindow(const std::vector<DynInst> &slots,
                       const std::vector<Cycle> &fetched) const
{
    if (slots.size() != fetched.size())
        return "window and fetch-cycle slot counts differ";
    if (windowBase_ != committed_)
        return "window base is not the commit point";
    if (fetchSeq_ < windowBase_ || bpSeq_ < fetchSeq_)
        return "fetch cursor outside [window base, prediction cursor]";
    const std::uint64_t pulled = windowBase_ + slots.size();
    if (pulled < bpSeq_ || pulled > bpSeq_ + 1)
        return "not at most one pulled instruction past the prediction "
               "cursor";
    if (ftq_.empty()) {
        if (fetchSeq_ != bpSeq_)
            return "empty FTQ behind unfetched predicted instructions";
    } else {
        if (ftq_.front().startSeq > fetchSeq_ ||
            fetchSeq_ >= ftq_.front().endSeq)
            return "FTQ front entry does not hold the fetch cursor";
        for (std::size_t i = 0; i < ftq_.size(); ++i) {
            if (ftq_[i].startSeq >= ftq_[i].endSeq ||
                (i > 0 && ftq_[i - 1].endSeq != ftq_[i].startSeq))
                return "FTQ entries are not contiguous";
        }
        if (ftq_.back().endSeq != bpSeq_)
            return "last FTQ entry does not end at the prediction cursor";
        // Fetch accesses the entry's block for its instructions.
        for (std::size_t i = 0; i < ftq_.size(); ++i) {
            if (ftq_[i].block !=
                blockAlign(slots[ftq_[i].endSeq - 1 - windowBase_].pc))
                return "an FTQ entry's block does not hold its "
                       "instructions";
        }
    }
    for (std::uint64_t i = 0; i < slots.size(); ++i) {
        if (windowBase_ + i >= fetchSeq_) {
            if (fetched[i] != kNotFetched)
                return "a slot past the fetch cursor has a fetch cycle";
        } else if (fetched[i] == kNotFetched ||
                   (i > 0 && fetched[i] < fetched[i - 1])) {
            return "fetch cycles decrease over the fetched slots";
        }
    }
    if (feBlock_ > FeBlock::Mispredict)
        return "unknown front-end block kind";
    // The prediction unit stops at its blocking control instruction:
    // the BTB resume and the flush find it at the window's back.
    if (feBlock_ != FeBlock::None &&
        (feBlockSeq_ < windowBase_ || feBlockSeq_ + 1 != pulled ||
         pulled != bpSeq_ ||
         !isControl(slots[feBlockSeq_ - windowBase_].kind)))
        return "front-end block is not the last pulled instruction";
    return nullptr;
}

template <class Ar>
void
Simulator::serializeState(Ar &ar)
{
    // The blob holds the window per slot: one DynInst and one fetch
    // cycle each, kNotFetched from fetchSeq_ on. A restore rebuilds the
    // runs and fetch groups from them.
    std::vector<DynInst> slots;
    std::vector<Cycle> fetched;
    if constexpr (!Ar::loading) {
        for (std::size_t r = 0; r < window_.size(); ++r) {
            slots.push_back(window_[r].first);
            for (std::uint64_t i = 1; i < window_[r].n; ++i)
                slots.push_back(follower(window_[r].first, i));
        }
        std::uint64_t seq = windowBase_;
        for (std::size_t g = 0; g < fetchGroups_.size(); ++g) {
            for (; seq < fetchGroups_[g].endSeq; ++seq)
                fetched.push_back(fetchGroups_[g].cycle);
        }
        fetched.resize(slots.size(), kNotFetched);
    }
    io(ar, cycle_);
    io(ar, slots);
    io(ar, fetched);
    io(ar, windowBase_);
    io(ar, bpSeq_);
    io(ar, fetchSeq_);
    io(ar, ftq_);
    io(ar, feBlock_);
    io(ar, feBlockSeq_);
    io(ar, feResumeAt_);
    io(ar, feResumeScheduled_);
    io(ar, fetchStalledUntil_);
    io(ar, commitBlockedUntil_);
    io(ar, committed_);
    if constexpr (Ar::loading) {
        if (ar.failed())
            return;
        if (const char *bad = checkWindow(slots, fetched)) {
            ar.markFailed(bad);
            return;
        }
        window_.clear();
        fetchGroups_.clear();
        pullSeq_ = windowBase_;
        for (const DynInst &inst : slots)
            appendRun(inst, 1);
        for (std::uint64_t seq = windowBase_; seq < fetchSeq_; ++seq) {
            const Cycle c = fetched[seq - windowBase_];
            if (!fetchGroups_.empty() && fetchGroups_.back().cycle == c)
                fetchGroups_.back().endSeq = seq + 1;
            else
                fetchGroups_.push_back({seq + 1, c});
        }
    }
    hier_.serializeState(ar);
    btb_.serializeState(ar);
    condPred_.serializeState(ar);
    indirectPred_.serializeState(ar);
    ras_.serializeState(ar);
    for (TenantRt &t : tenants_) {
        if (t.scenEngine)
            t.scenEngine->serializeState(ar);
        else
            t.engine->serializeState(ar);
    }
    io(ar, activeTenant_);
    io(ar, nextSwitchAt_);
    if constexpr (Ar::loading) {
        if (activeTenant_ >= tenants_.size()) {
            ar.markFailed("the active tenant is past the tenant list");
            return;
        }
        bindTenant(activeTenant_);
        // The active stream's next instruction must follow the
        // window's last one, as every pull checks.
        if (!ar.failed() && !window_.empty() &&
            (scenEngine_ ? scenEngine_->resumePc()
                         : engine_->resumePc()) != windowEndPc()) {
            ar.markFailed("the workload stream does not resume where the "
                          "window ends");
            return;
        }
    }
    if (pf_)
        pf_->serializeState(ar);
    if (cfg_.trackReuse) {
        reuse_.serializeState(ar);
        reuseHist_->serializeState(ar);
    }

    // A restore positions the engine at a segment boundary before any
    // measurement, whatever this instance was doing previously — that
    // is what lets one Simulator replay checkpoint after checkpoint
    // (sim/sampling.cc) instead of paying construction per interval.
    // The phase and the boundary's owed clock advance are control
    // state, not checkpoint state, so they are reset rather than
    // serialized; the time-series sampler re-anchors at the restored
    // position, so its next row does not span the jump.
    if constexpr (Ar::loading) {
        measuring_ = false;
        owesAdvance_ = true;
        if (sampler_)
            sampler_->anchor(committed_);
    }
}

template void Simulator::serializeState(StateWriter &);
template void Simulator::serializeState(StateLoader &);

} // namespace hp
