/**
 * @file
 * The scenario engine: an InstStream that executes a parsed Scenario.
 *
 * Each service instantiates its profile's built application and a
 * RequestEngine of its own; the scenario engine sequences them. One
 * end-to-end request is a *chain*: the request walks each service in
 * order, and the final return of one hop is redirected to the next
 * service's request driver (exactly how the single-app engine loops
 * back to its own driver). Every service's code is placed in a
 * disjoint 4 GiB address window so two services built from the same
 * binary profile do not alias in the caches, BTB, or prefetcher.
 *
 * Arrival times, phases, and the chain mix come from the scenario's
 * seeded ArrivalProcess and mix RNG: chain selection uses the phase
 * the arrival falls in (its mix= override, or the chains' default
 * weights). The emitted stream carries a RequestBegin marker on a
 * chain's first instruction and a RequestEnd marker on its final
 * return; the simulator feeds those to the LatencyTracker at commit.
 */

#ifndef HP_WORKLOAD_SCENARIO_ENGINE_HH
#define HP_WORKLOAD_SCENARIO_ENGINE_HH

#include <memory>
#include <vector>

#include "workload/latency_tracker.hh"
#include "workload/request_engine.hh"
#include "workload/scenario.hh"

namespace hp
{

/** Interprets a Scenario as an infinite instruction stream. */
class ScenarioEngine : public InstStream
{
  public:
    /** Address stride between service code windows (4 GiB: preserves
     *  block/page alignment; service 0 keeps untranslated addresses). */
    static constexpr Addr kServiceStride = Addr(1) << 32;

    explicit ScenarioEngine(std::shared_ptr<const Scenario> scen);

    /** Forwards the run of the active hop's engine, translated into
     *  its service's address window. Only a one-instruction final
     *  return ends a hop, so runs never cross one. */
    std::uint64_t next(DynInst &first, std::uint64_t max = 1) override;

    /** Registers engine.* aggregates (the paths a single-workload
     *  run registers), latency.* counters, and scenario.* breakdowns. */
    void registerStats(StatsRegistry &reg);

    LatencyTracker &tracker() { return tracker_; }

    const Scenario &scenario() const { return *scen_; }

    /** The translated pc of the next instruction next() emits, or
     *  kNever before the first chain is drawn. */
    Addr resumePc() const;

    /** Serializes/restores every sub-engine, the arrival process,
     *  the mix RNG, the tracker, and the chain cursor. */
    template <class Ar> void serializeState(Ar &ar);

  private:
    struct Service
    {
        std::shared_ptr<const BuiltApp> app;
        std::unique_ptr<RequestEngine> engine;
        Addr base = 0;       ///< Address-window offset.
        Addr driverAddr = 0; ///< Translated request-driver entry.
    };

    /** Draws the next arrival + chain and resets the hop cursor. */
    void scheduleNext();

    std::shared_ptr<const Scenario> scen_;
    std::vector<Service> services_;

    /** chain -> ordered service indices. */
    std::vector<std::vector<int>> chainServices_;

    /** phase -> cumulative (weight, chain) mix table. */
    std::vector<std::vector<std::pair<double, int>>> mixCum_;

    ArrivalProcess arrivals_;
    Rng mixRng_;
    LatencyTracker tracker_;

    int curChain_ = -1;
    std::uint32_t hop_ = 0;

    // scenario.* counters.
    std::uint64_t requestsStarted_ = 0; ///< End-to-end chains begun.
    std::uint64_t phaseChanges_ = 0;
    std::uint32_t lastPhase_ = 0;
    std::vector<std::uint64_t> chainRequests_; ///< Per chain.
};

} // namespace hp

#endif // HP_WORKLOAD_SCENARIO_ENGINE_HH
