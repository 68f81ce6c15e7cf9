/**
 * @file
 * Declarative scenario layer: a small genny-style text format that
 * composes the fixed AppProfiles into an open-ended workload space —
 * request mixes, open-loop arrival processes (fixed-rate, Poisson,
 * diurnal waves, flash crowds), phased load changes mid-run, and
 * simple multi-service request chains (see DESIGN.md §11).
 *
 * A spec is line-oriented:
 *
 *     scenario checkout-rush
 *     seed 42
 *     service web profile=beego-web
 *     service db  profile=tidb-tpcc
 *     chain browse services=web weight=3
 *     chain buy    services=web,db weight=1
 *     phase steady duration=400k arrival=poisson rate=0.02
 *     phase rush   duration=200k arrival=flash rate=0.02 peak=0.05 \
 *                  ramp=40k mix=buy:3,browse:1
 *     phase calm   arrival=fixed rate=0.01
 *
 * Rates are in requests per kilocycle; durations/periods in cycles
 * (with k/m suffixes for 1e3/1e6). The parser rejects malformed specs
 * with a line-numbered error, and serializeScenario() emits a
 * canonical form that parses back to an equal Scenario (the
 * round-trip the parser tests pin down). Every stochastic draw is
 * seeded, so a scenario replays bit-identically.
 */

#ifndef HP_WORKLOAD_SCENARIO_HH
#define HP_WORKLOAD_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace hp
{

/** Open-loop arrival process of one phase. */
struct ArrivalSpec
{
    enum class Kind : std::uint8_t
    {
        Fixed,   ///< Constant inter-arrival gap.
        Poisson, ///< Exponential gaps (memoryless).
        Diurnal, ///< Sinusoidal rate wave (Lewis-Shedler thinning).
        Flash,   ///< Ramp to a peak, hold, ramp back down.
    };

    Kind kind = Kind::Fixed;

    /** Baseline rate in requests per kilocycle (> 0). */
    double rate = 0.0;

    /** Flash: peak rate in requests per kilocycle (>= rate). */
    double peak = 0.0;

    /** Flash: cycles to ramp up (and back down). */
    std::uint64_t ramp = 0;

    /** Diurnal: wave amplitude as a fraction of rate, in [0, 1]. */
    double amplitude = 0.5;

    /** Diurnal: wave period in cycles (> 0). */
    std::uint64_t period = 0;

    bool operator==(const ArrivalSpec &) const = default;
};

/** One simulated service: a named instance of an AppProfile. */
struct ServiceSpec
{
    std::string name;
    std::string profile; ///< A workload name (appProfile()).

    bool operator==(const ServiceSpec &) const = default;
};

/** A request class: the ordered services one request walks through. */
struct ChainSpec
{
    std::string name;
    std::vector<std::string> services; ///< >= 1 defined service names.
    double weight = 1.0;               ///< Default mix weight (> 0).

    bool operator==(const ChainSpec &) const = default;
};

/** One entry of a phase's chain-mix override. */
struct MixEntry
{
    std::string chain;
    double weight = 1.0;

    bool operator==(const MixEntry &) const = default;
};

/** One load phase: an arrival process active over a cycle range. */
struct PhaseSpec
{
    std::string name;

    /** Absolute start cycle (cumulative; validated contiguous). */
    std::uint64_t start = 0;

    /** Length in cycles; 0 = unbounded (last phase only). */
    std::uint64_t duration = 0;

    ArrivalSpec arrival;

    /** Chain-mix override; empty = the chains' default weights. */
    std::vector<MixEntry> mix;

    bool operator==(const PhaseSpec &) const = default;
};

/** A parsed, validated scenario. */
struct Scenario
{
    std::string name;
    std::uint64_t seed = 1;
    std::vector<ServiceSpec> services;
    std::vector<ChainSpec> chains;
    std::vector<PhaseSpec> phases;

    /** Index of service @p n, or -1. */
    int serviceIndex(const std::string &n) const;

    /** Index of chain @p n, or -1. */
    int chainIndex(const std::string &n) const;

    /** End cycle of phase @p i (~0 when it extends forever). */
    std::uint64_t phaseEnd(std::size_t i) const;

    bool operator==(const Scenario &) const = default;
};

/**
 * Parses a scenario spec. On failure returns false with @p error set
 * to a line-numbered message ("line 7: rate must be > 0"); @p out is
 * unspecified then.
 */
bool parseScenario(const std::string &text, Scenario *out,
                   std::string *error = nullptr);

/**
 * Emits the canonical text form: parseScenario(serializeScenario(s))
 * yields a Scenario equal to @p s (doubles printed round-trip exact).
 */
std::string serializeScenario(const Scenario &s);

/** Reads @p path into @p text; false with @p error on I/O failure. */
bool loadScenarioFile(const std::string &path, std::string *text,
                      std::string *error = nullptr);

/**
 * Process-wide parse cache keyed by the spec text; fatals on a spec
 * that does not parse (callers validate user input first). The
 * Simulator resolves SimConfig::scenario through this, so a grid of
 * runs over one scenario parses it once.
 */
std::shared_ptr<const Scenario> cachedScenario(const std::string &text);

/** Profile name that normalizes data-side DRAM traffic for a
 *  scenario run: the first service's profile. */
const std::string &scenarioPrimaryProfile(const Scenario &s);

/**
 * The process-default scenario spec text applied by defaultConfig():
 * initialized once from HP_SCENARIO (a spec *path*; empty when unset
 * or unparseable, with a warning), overridable by setDefaultScenario
 * (the bench --scenario flag). Configs built directly are unaffected.
 */
const std::string &defaultScenario();
void setDefaultScenario(const std::string &spec_text);

/** One scheduled request arrival. */
struct ArrivalEvent
{
    std::uint64_t cycle = 0;  ///< Absolute arrival cycle.
    std::uint32_t phase = 0;  ///< Phase index the arrival falls in.
};

/**
 * The seeded arrival-event generator over a scenario's phases.
 * Deterministic: the same scenario (seed included) always yields the
 * same event stream. Nonhomogeneous shapes (diurnal, flash) use
 * Lewis-Shedler thinning against the phase's peak rate. The last
 * phase extends forever (its rate clamped at its nominal end when it
 * has a duration), so the stream never runs dry.
 */
class ArrivalProcess
{
  public:
    ArrivalProcess() = default;

    /** @p scen must outlive the process (not serialized). */
    explicit ArrivalProcess(const Scenario *scen);

    /** Next arrival; nondecreasing cycle sequence. */
    ArrivalEvent next();

    /** Serializes/restores the clock, phase cursor, and RNG. */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        ar.value(t_);
        ar.value(phase_);
        rng_.serializeState(ar);
        if constexpr (Ar::loading) {
            if (scen_ && phase_ >= scen_->phases.size()) {
                ar.markFailed("arrival process: the phase cursor is "
                              "outside the scenario");
                phase_ = 0;
            }
        }
    }

  private:
    /** Instantaneous rate (requests/cycle) of phase @p p at time @p t. */
    double rateAt(const PhaseSpec &p, double t) const;

    /** Upper bound on rateAt over the phase (requests/cycle). */
    static double maxRate(const PhaseSpec &p);

    const Scenario *scen_ = nullptr;
    Rng rng_{1};
    double t_ = 0.0;
    std::uint32_t phase_ = 0;
};

} // namespace hp

#endif // HP_WORKLOAD_SCENARIO_HH
