#include "workload/scenario_engine.hh"

#include "util/logging.hh"
#include "util/serialize.hh"
#include "workload/app_profile.hh"

namespace hp
{

ScenarioEngine::ScenarioEngine(std::shared_ptr<const Scenario> scen)
    : scen_(std::move(scen)),
      arrivals_(scen_.get()),
      // An independent stream for chain selection, derived from the
      // scenario seed (not shared with the arrival clock, so adding
      // a chain does not perturb arrival times).
      mixRng_(scen_->seed * 0x9e3779b97f4a7c15ULL + 1)
{
    fatalIf(scen_ == nullptr, "ScenarioEngine needs a scenario");

    services_.reserve(scen_->services.size());
    for (std::size_t i = 0; i < scen_->services.size(); ++i) {
        const AppProfile &profile =
            appProfile(scen_->services[i].profile);
        Service svc;
        svc.app = ProgramBuilder::cached(profile);
        svc.engine = std::make_unique<RequestEngine>(svc.app, profile);
        svc.base = kServiceStride * Addr(i);
        svc.driverAddr =
            svc.base +
            svc.app->program.func(svc.app->requestDriver).addr;
        services_.push_back(std::move(svc));
    }

    chainServices_.reserve(scen_->chains.size());
    for (const ChainSpec &chain : scen_->chains) {
        std::vector<int> idx;
        idx.reserve(chain.services.size());
        for (const std::string &name : chain.services)
            idx.push_back(scen_->serviceIndex(name));
        chainServices_.push_back(std::move(idx));
    }
    chainRequests_.assign(scen_->chains.size(), 0);

    mixCum_.reserve(scen_->phases.size());
    for (const PhaseSpec &phase : scen_->phases) {
        std::vector<std::pair<double, int>> cum;
        double total = 0.0;
        if (phase.mix.empty()) {
            for (std::size_t c = 0; c < scen_->chains.size(); ++c) {
                total += scen_->chains[c].weight;
                cum.emplace_back(total, static_cast<int>(c));
            }
        } else {
            for (const MixEntry &me : phase.mix) {
                total += me.weight;
                cum.emplace_back(total, scen_->chainIndex(me.chain));
            }
        }
        mixCum_.push_back(std::move(cum));
    }
}

void
ScenarioEngine::scheduleNext()
{
    const ArrivalEvent ev = arrivals_.next();
    tracker_.onGenerated(ev.cycle);

    const auto &cum = mixCum_[ev.phase];
    int chain = cum.back().second;
    if (cum.size() > 1) {
        const double u = mixRng_.nextDouble() * cum.back().first;
        for (const auto &[w, idx] : cum) {
            if (u < w) {
                chain = idx;
                break;
            }
        }
    }

    curChain_ = chain;
    hop_ = 0;
    ++requestsStarted_;
    ++chainRequests_[static_cast<std::size_t>(chain)];
    if (ev.phase != lastPhase_) {
        ++phaseChanges_;
        lastPhase_ = ev.phase;
    }
}

std::uint64_t
ScenarioEngine::next(DynInst &inst, std::uint64_t max)
{
    if (curChain_ < 0)
        scheduleNext();

    const std::vector<int> &hops =
        chainServices_[static_cast<std::size_t>(curChain_)];
    Service &svc = services_[static_cast<std::size_t>(hops[hop_])];
    const std::uint64_t n = svc.engine->next(inst, max);
    const bool hop_done = svc.engine->idle();

    // Translate into the service's address window. target == 0 means
    // "no transfer", so only nonzero targets move.
    inst.pc += svc.base;
    if (inst.target != 0)
        inst.target += svc.base;

    // Only the chain's first instruction announces the request; the
    // sub-engines' own per-hop begin markers are stripped. The kept
    // marker carries the chain index (markerArg is architecturally
    // unread) so the request-span tracker can group by chain.
    if (inst.marker == StreamMarker::RequestBegin) {
        if (hop_ > 0) {
            inst.marker = StreamMarker::None;
            inst.markerArg = 0;
        } else {
            inst.markerArg = static_cast<std::uint16_t>(curChain_);
        }
    }

    if (hop_done) {
        ++hop_;
        if (hop_ < hops.size()) {
            // Hand off: the hop's final return lands on the next
            // service's request driver.
            const Service &nsvc =
                services_[static_cast<std::size_t>(hops[hop_])];
            inst.target = nsvc.driverAddr;
        } else {
            // Chain complete; draw the next request and steer the
            // final return at its first service. The chain index must
            // be stamped before scheduleNext() redraws curChain_.
            inst.marker = StreamMarker::RequestEnd;
            inst.markerArg = static_cast<std::uint16_t>(curChain_);
            scheduleNext();
            const std::vector<int> &nhops =
                chainServices_[static_cast<std::size_t>(curChain_)];
            inst.target =
                services_[static_cast<std::size_t>(nhops[0])]
                    .driverAddr;
        }
    }
    return n;
}

Addr
ScenarioEngine::resumePc() const
{
    if (curChain_ < 0)
        return kNever;
    const Service &svc = services_[static_cast<std::size_t>(
        chainServices_[static_cast<std::size_t>(curChain_)][hop_])];
    return svc.engine->resumePc() + svc.base;
}

void
ScenarioEngine::registerStats(StatsRegistry &reg)
{
    // The engine.* paths a single-workload run registers, as sums over
    // every service's emitted stream, except requests, which counts
    // end-to-end chains (per-hop sub-requests are scenario.hops).
    auto sum = [this](std::uint64_t EngineStats::*field) {
        std::uint64_t total = 0;
        for (const Service &svc : services_)
            total += svc.engine->stats().*field;
        return total;
    };
    reg.add("engine.instructions",
            [sum] { return sum(&EngineStats::instructions); });
    reg.add("engine.requests", [this] { return requestsStarted_; });
    reg.add("engine.calls", [sum] { return sum(&EngineStats::calls); });
    reg.add("engine.returns",
            [sum] { return sum(&EngineStats::returns); });
    reg.add("engine.cond_branches",
            [sum] { return sum(&EngineStats::condBranches); });
    reg.add("engine.tagged_insts",
            [sum] { return sum(&EngineStats::taggedInsts); });

    reg.add("scenario.hops",
            [sum] { return sum(&EngineStats::requests); });
    reg.add("scenario.phase_changes",
            [this] { return phaseChanges_; });
    for (std::size_t c = 0; c < scen_->chains.size(); ++c) {
        reg.add("scenario.chain." + scen_->chains[c].name +
                    ".requests",
                [this, c] { return chainRequests_[c]; });
    }

    tracker_.registerStats(reg);
}

template <class Ar>
void
ScenarioEngine::serializeState(Ar &ar)
{
    for (Service &svc : services_)
        svc.engine->serializeState(ar);
    arrivals_.serializeState(ar);
    mixRng_.serializeState(ar);
    tracker_.serializeState(ar);
    io(ar, curChain_);
    io(ar, hop_);
    io(ar, lastPhase_);
    if constexpr (Ar::loading) {
        // No chain yet (-1), or a hop of one of the scenario's chains.
        const std::size_t chain = std::size_t(curChain_);
        if (curChain_ != -1 &&
            (chain >= chainServices_.size() ||
             hop_ >= chainServices_[chain].size())) {
            ar.markFailed("scenario engine: the chain cursor is outside "
                          "the scenario");
            curChain_ = -1;
        }
    }
}

template void ScenarioEngine::serializeState(StateWriter &);
template void ScenarioEngine::serializeState(StateLoader &);

} // namespace hp
