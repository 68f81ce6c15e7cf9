#include "workload/scenario.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/runtime_options.hh"
#include "util/logging.hh"
#include "util/once_map.hh"
#include "workload/app_profile.hh"

namespace hp
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/** %.17g — enough digits that parsing the text restores the bits. */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Parses a number with an optional k/m suffix (1e3 / 1e6). Rejects
 * trailing junk, NaN and infinity; sign is the caller's range check.
 */
bool
parseNumber(const std::string &tok, double *out)
{
    if (tok.empty())
        return false;
    std::string body = tok;
    double mult = 1.0;
    const char last = body.back();
    if (last == 'k' || last == 'K') {
        mult = 1e3;
        body.pop_back();
    } else if (last == 'm' || last == 'M') {
        mult = 1e6;
        body.pop_back();
    }
    if (body.empty())
        return false;
    char *rest = nullptr;
    const double v = std::strtod(body.c_str(), &rest);
    if (rest == nullptr || *rest != '\0' || !std::isfinite(v))
        return false;
    *out = v * mult;
    return true;
}

/** Nonnegative integer-valued cycle/seed quantity (k/m allowed). */
bool
parseCycles(const std::string &tok, std::uint64_t *out)
{
    double v = 0.0;
    if (!parseNumber(tok, &v) || v < 0.0 || v != std::floor(v) ||
        v > 1e15) {
        return false;
    }
    *out = static_cast<std::uint64_t>(v);
    return true;
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (true) {
        const std::size_t end = s.find(sep, pos);
        out.push_back(s.substr(pos, end == std::string::npos
                                        ? std::string::npos
                                        : end - pos));
        if (end == std::string::npos)
            break;
        pos = end + 1;
    }
    return out;
}

const char *
arrivalKindName(ArrivalSpec::Kind kind)
{
    switch (kind) {
      case ArrivalSpec::Kind::Fixed: return "fixed";
      case ArrivalSpec::Kind::Poisson: return "poisson";
      case ArrivalSpec::Kind::Diurnal: return "diurnal";
      case ArrivalSpec::Kind::Flash: return "flash";
    }
    return "?";
}

bool
isKnownWorkload(const std::string &name)
{
    for (const std::string &w : allWorkloads()) {
        if (w == name)
            return true;
    }
    return false;
}

/**
 * Scenario, service, chain and phase names become parts of registry
 * paths (scenario.chain.<name>.requests) and of the stats JSON, which
 * writes paths unescaped, so they are restricted to [A-Za-z0-9_-].
 */
bool
isPlainName(const std::string &name)
{
    for (char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-') {
            return false;
        }
    }
    return true;
}

/** Shared error channel: every reject goes through fail(line, msg). */
struct ParseCtx
{
    std::string *error;

    bool
    fail(unsigned line, const std::string &msg)
    {
        if (error)
            *error = "line " + std::to_string(line) + ": " + msg;
        return false;
    }
};

} // namespace

int
Scenario::serviceIndex(const std::string &n) const
{
    for (std::size_t i = 0; i < services.size(); ++i) {
        if (services[i].name == n)
            return static_cast<int>(i);
    }
    return -1;
}

int
Scenario::chainIndex(const std::string &n) const
{
    for (std::size_t i = 0; i < chains.size(); ++i) {
        if (chains[i].name == n)
            return static_cast<int>(i);
    }
    return -1;
}

std::uint64_t
Scenario::phaseEnd(std::size_t i) const
{
    if (i + 1 < phases.size())
        return phases[i + 1].start;
    return ~std::uint64_t(0);
}

bool
parseScenario(const std::string &text, Scenario *out,
              std::string *error)
{
    ParseCtx ctx{error};
    Scenario s;
    bool have_header = false;
    bool have_seed = false;
    std::vector<unsigned> phase_lines;
    // Explicit `start=` values, checked for overlap/gap at the end
    // (when every phase's cumulative position is known).
    std::vector<std::pair<std::size_t, std::uint64_t>> explicit_starts;

    std::istringstream in(text);
    std::string raw;
    unsigned line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);

        std::istringstream tokens(raw);
        std::string directive;
        if (!(tokens >> directive))
            continue; // blank / comment-only line

        // Positional name (value, for `seed`) then key=value pairs.
        std::string name;
        std::vector<std::pair<std::string, std::string>> kvs;
        {
            std::string tok;
            bool first = true;
            bool bad = false;
            while (tokens >> tok) {
                const std::size_t eq = tok.find('=');
                if (first && eq == std::string::npos) {
                    name = tok;
                    first = false;
                    continue;
                }
                first = false;
                if (eq == std::string::npos || eq == 0) {
                    bad = true;
                    break;
                }
                kvs.emplace_back(tok.substr(0, eq),
                                 tok.substr(eq + 1));
            }
            if (bad) {
                return ctx.fail(line_no, "expected key=value, got '" +
                                             tok + "'");
            }
        }

        if (!have_header && directive != "scenario")
            return ctx.fail(line_no, "spec must start with 'scenario "
                                     "<name>'");
        const bool named = directive == "scenario" ||
                           directive == "service" ||
                           directive == "chain" || directive == "phase";
        if (named && !isPlainName(name)) {
            return ctx.fail(line_no, directive + " name '" + name +
                                         "' may only contain letters, "
                                         "digits, '_' and '-'");
        }

        if (directive == "scenario") {
            if (have_header)
                return ctx.fail(line_no, "duplicate scenario line");
            if (name.empty())
                return ctx.fail(line_no, "scenario needs a name");
            if (!kvs.empty())
                return ctx.fail(line_no, "unknown key '" +
                                             kvs.front().first +
                                             "' for scenario");
            s.name = name;
            have_header = true;
        } else if (directive == "seed") {
            if (have_seed)
                return ctx.fail(line_no, "duplicate seed line");
            if (name.empty() || !kvs.empty() ||
                !parseCycles(name, &s.seed)) {
                return ctx.fail(line_no,
                                "seed wants one nonnegative integer");
            }
            have_seed = true;
        } else if (directive == "service") {
            if (name.empty())
                return ctx.fail(line_no, "service needs a name");
            if (s.serviceIndex(name) >= 0)
                return ctx.fail(line_no,
                                "duplicate service '" + name + "'");
            ServiceSpec svc;
            svc.name = name;
            for (const auto &[k, v] : kvs) {
                if (k == "profile") {
                    svc.profile = v;
                } else {
                    return ctx.fail(line_no, "unknown key '" + k +
                                                 "' for service");
                }
            }
            if (svc.profile.empty())
                return ctx.fail(line_no, "service '" + name +
                                             "' needs profile=<workload>");
            if (!isKnownWorkload(svc.profile))
                return ctx.fail(line_no, "unknown workload profile '" +
                                             svc.profile + "'");
            s.services.push_back(std::move(svc));
        } else if (directive == "chain") {
            if (name.empty())
                return ctx.fail(line_no, "chain needs a name");
            if (s.chainIndex(name) >= 0)
                return ctx.fail(line_no,
                                "duplicate chain '" + name + "'");
            ChainSpec chain;
            chain.name = name;
            for (const auto &[k, v] : kvs) {
                if (k == "services") {
                    for (const std::string &svc : splitList(v, ',')) {
                        if (s.serviceIndex(svc) < 0) {
                            return ctx.fail(line_no,
                                            "unknown service '" + svc +
                                                "' in chain '" + name +
                                                "'");
                        }
                        chain.services.push_back(svc);
                    }
                } else if (k == "weight") {
                    if (!parseNumber(v, &chain.weight) ||
                        chain.weight <= 0.0) {
                        return ctx.fail(line_no,
                                        "weight must be > 0");
                    }
                } else {
                    return ctx.fail(line_no, "unknown key '" + k +
                                                 "' for chain");
                }
            }
            if (chain.services.empty())
                return ctx.fail(line_no, "chain '" + name +
                                             "' needs services=<s1,...>");
            s.chains.push_back(std::move(chain));
        } else if (directive == "phase") {
            if (name.empty())
                return ctx.fail(line_no, "phase needs a name");
            for (const PhaseSpec &p : s.phases) {
                if (p.name == name)
                    return ctx.fail(line_no,
                                    "duplicate phase '" + name + "'");
            }
            PhaseSpec phase;
            phase.name = name;
            bool have_rate = false;
            bool have_kind = false;
            bool have_peak = false, have_ramp = false;
            bool have_amplitude = false, have_period = false;
            bool have_start = false;
            std::uint64_t start = 0;
            for (const auto &[k, v] : kvs) {
                if (k == "duration") {
                    if (!parseCycles(v, &phase.duration) ||
                        phase.duration == 0) {
                        return ctx.fail(line_no,
                                        "duration must be > 0 cycles");
                    }
                } else if (k == "start") {
                    if (!parseCycles(v, &start))
                        return ctx.fail(line_no, "bad start '" + v + "'");
                    have_start = true;
                } else if (k == "arrival") {
                    have_kind = true;
                    if (v == "fixed") {
                        phase.arrival.kind = ArrivalSpec::Kind::Fixed;
                    } else if (v == "poisson") {
                        phase.arrival.kind = ArrivalSpec::Kind::Poisson;
                    } else if (v == "diurnal") {
                        phase.arrival.kind = ArrivalSpec::Kind::Diurnal;
                    } else if (v == "flash") {
                        phase.arrival.kind = ArrivalSpec::Kind::Flash;
                    } else {
                        return ctx.fail(line_no,
                                        "unknown arrival kind '" + v +
                                            "' (want fixed|poisson|"
                                            "diurnal|flash)");
                    }
                } else if (k == "rate") {
                    if (!parseNumber(v, &phase.arrival.rate) ||
                        phase.arrival.rate <= 0.0) {
                        return ctx.fail(line_no, "rate must be > 0");
                    }
                    have_rate = true;
                } else if (k == "peak") {
                    if (!parseNumber(v, &phase.arrival.peak) ||
                        phase.arrival.peak <= 0.0) {
                        return ctx.fail(line_no, "peak must be > 0");
                    }
                    have_peak = true;
                } else if (k == "ramp") {
                    if (!parseCycles(v, &phase.arrival.ramp) ||
                        phase.arrival.ramp == 0) {
                        return ctx.fail(line_no,
                                        "ramp must be > 0 cycles");
                    }
                    have_ramp = true;
                } else if (k == "amplitude") {
                    if (!parseNumber(v, &phase.arrival.amplitude) ||
                        phase.arrival.amplitude < 0.0 ||
                        phase.arrival.amplitude > 1.0) {
                        return ctx.fail(line_no,
                                        "amplitude must be in [0, 1]");
                    }
                    have_amplitude = true;
                } else if (k == "period") {
                    if (!parseCycles(v, &phase.arrival.period) ||
                        phase.arrival.period == 0) {
                        return ctx.fail(line_no,
                                        "period must be > 0 cycles");
                    }
                    have_period = true;
                } else if (k == "mix") {
                    for (const std::string &entry : splitList(v, ',')) {
                        const std::size_t colon = entry.find(':');
                        MixEntry me;
                        me.chain = entry.substr(0, colon);
                        if (s.chainIndex(me.chain) < 0) {
                            return ctx.fail(line_no,
                                            "unknown chain '" +
                                                me.chain + "' in mix");
                        }
                        for (const MixEntry &prev : phase.mix) {
                            if (prev.chain == me.chain) {
                                return ctx.fail(line_no,
                                                "duplicate chain '" +
                                                    me.chain +
                                                    "' in mix");
                            }
                        }
                        if (colon != std::string::npos &&
                            (!parseNumber(entry.substr(colon + 1),
                                          &me.weight) ||
                             me.weight <= 0.0)) {
                            return ctx.fail(line_no,
                                            "mix weight must be > 0");
                        }
                        phase.mix.push_back(std::move(me));
                    }
                } else {
                    return ctx.fail(line_no, "unknown key '" + k +
                                                 "' for phase");
                }
            }
            if (!have_kind)
                return ctx.fail(line_no, "phase '" + name +
                                             "' needs arrival=<kind>");
            if (!have_rate)
                return ctx.fail(line_no, "phase '" + name +
                                             "' needs rate=<r>");
            const ArrivalSpec::Kind kind = phase.arrival.kind;
            if (kind != ArrivalSpec::Kind::Flash &&
                (have_peak || have_ramp)) {
                return ctx.fail(line_no, "peak/ramp only apply to "
                                         "flash arrivals");
            }
            if (kind != ArrivalSpec::Kind::Diurnal &&
                (have_amplitude || have_period)) {
                return ctx.fail(line_no, "amplitude/period only apply "
                                         "to diurnal arrivals");
            }
            if (kind == ArrivalSpec::Kind::Flash) {
                if (!have_peak || !have_ramp) {
                    return ctx.fail(line_no,
                                    "flash needs peak=<r> ramp=<cycles>");
                }
                if (phase.arrival.peak < phase.arrival.rate) {
                    return ctx.fail(line_no,
                                    "flash peak must be >= rate");
                }
                if (phase.duration == 0) {
                    return ctx.fail(line_no,
                                    "flash phases need a duration");
                }
                if (2 * phase.arrival.ramp > phase.duration) {
                    return ctx.fail(line_no, "flash ramps exceed the "
                                             "phase duration");
                }
            }
            if (kind == ArrivalSpec::Kind::Diurnal && !have_period) {
                return ctx.fail(line_no,
                                "diurnal needs period=<cycles>");
            }
            // Cumulative placement; explicit starts re-checked below.
            phase.start = s.phases.empty()
                ? 0
                : s.phases.back().start + s.phases.back().duration;
            if (have_start)
                explicit_starts.emplace_back(s.phases.size(), start);
            s.phases.push_back(std::move(phase));
            phase_lines.push_back(line_no);
        } else {
            return ctx.fail(line_no,
                            "unknown directive '" + directive + "'");
        }
    }

    if (!have_header)
        return ctx.fail(line_no ? line_no : 1,
                        "spec must start with 'scenario <name>'");
    if (s.services.empty())
        return ctx.fail(line_no, "scenario needs at least one service");
    if (s.chains.empty())
        return ctx.fail(line_no, "scenario needs at least one chain");
    if (s.phases.empty())
        return ctx.fail(line_no, "scenario needs at least one phase");

    // Every phase but the last needs a duration (phases are a
    // contiguous timeline; only the final one may run unbounded).
    for (std::size_t i = 0; i + 1 < s.phases.size(); ++i) {
        if (s.phases[i].duration == 0) {
            return ctx.fail(phase_lines[i],
                            "phase '" + s.phases[i].name +
                                "' needs a duration (only the last "
                                "phase may omit it)");
        }
    }

    // Explicit starts must land exactly on the cumulative timeline:
    // earlier is an overlap with the preceding phase, later is a gap.
    for (const auto &[idx, start] : explicit_starts) {
        const std::uint64_t expected = s.phases[idx].start;
        if (start == expected)
            continue;
        const std::string &prev =
            idx > 0 ? s.phases[idx - 1].name : s.phases[idx].name;
        if (start < expected) {
            return ctx.fail(phase_lines[idx],
                            "phase '" + s.phases[idx].name +
                                "' overlaps phase '" + prev + "'");
        }
        return ctx.fail(phase_lines[idx],
                        "gap before phase '" + s.phases[idx].name +
                            "' (starts at " + std::to_string(start) +
                            ", previous phase ends at " +
                            std::to_string(expected) + ")");
    }

    *out = std::move(s);
    return true;
}

std::string
serializeScenario(const Scenario &s)
{
    std::ostringstream out;
    out << "scenario " << s.name << "\n";
    out << "seed " << s.seed << "\n";
    for (const ServiceSpec &svc : s.services)
        out << "service " << svc.name << " profile=" << svc.profile
            << "\n";
    for (const ChainSpec &chain : s.chains) {
        out << "chain " << chain.name << " services=";
        for (std::size_t i = 0; i < chain.services.size(); ++i)
            out << (i ? "," : "") << chain.services[i];
        out << " weight=" << fmtDouble(chain.weight) << "\n";
    }
    for (const PhaseSpec &phase : s.phases) {
        out << "phase " << phase.name;
        if (phase.duration > 0)
            out << " duration=" << phase.duration;
        out << " arrival=" << arrivalKindName(phase.arrival.kind)
            << " rate=" << fmtDouble(phase.arrival.rate);
        if (phase.arrival.kind == ArrivalSpec::Kind::Flash) {
            out << " peak=" << fmtDouble(phase.arrival.peak)
                << " ramp=" << phase.arrival.ramp;
        }
        if (phase.arrival.kind == ArrivalSpec::Kind::Diurnal) {
            out << " amplitude=" << fmtDouble(phase.arrival.amplitude)
                << " period=" << phase.arrival.period;
        }
        if (!phase.mix.empty()) {
            out << " mix=";
            for (std::size_t i = 0; i < phase.mix.size(); ++i) {
                out << (i ? "," : "") << phase.mix[i].chain << ':'
                    << fmtDouble(phase.mix[i].weight);
            }
        }
        out << "\n";
    }
    return out.str();
}

bool
loadScenarioFile(const std::string &path, std::string *text,
                 std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error)
            *error = "cannot open scenario file '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    *text = buf.str();
    return true;
}

std::shared_ptr<const Scenario>
cachedScenario(const std::string &text)
{
    static OnceMap<std::string, std::shared_ptr<const Scenario>> parsed;
    return parsed.get(text, [&text] {
        auto scen = std::make_shared<Scenario>();
        std::string err;
        fatalIf(!parseScenario(text, scen.get(), &err),
                "bad scenario spec: " + err);
        return std::shared_ptr<const Scenario>(std::move(scen));
    });
}

const std::string &
scenarioPrimaryProfile(const Scenario &s)
{
    return s.services.front().profile;
}

namespace
{

std::string &
defaultScenarioSlot()
{
    static std::string spec = [] {
        std::string text;
        if (const char *env = runtimeEnv("HP_SCENARIO")) {
            std::string err;
            Scenario scen;
            if (!loadScenarioFile(env, &text, &err) ||
                !parseScenario(text, &scen, &err)) {
                warn("ignoring HP_SCENARIO: " + err);
                text.clear();
            }
        }
        return text;
    }();
    return spec;
}

} // namespace

const std::string &
defaultScenario()
{
    return defaultScenarioSlot();
}

void
setDefaultScenario(const std::string &spec_text)
{
    defaultScenarioSlot() = spec_text;
}

ArrivalProcess::ArrivalProcess(const Scenario *scen)
    : scen_(scen), rng_(scen->seed)
{
}

double
ArrivalProcess::maxRate(const PhaseSpec &p)
{
    const ArrivalSpec &a = p.arrival;
    switch (a.kind) {
      case ArrivalSpec::Kind::Fixed:
      case ArrivalSpec::Kind::Poisson:
        return a.rate / 1000.0;
      case ArrivalSpec::Kind::Diurnal:
        return a.rate * (1.0 + a.amplitude) / 1000.0;
      case ArrivalSpec::Kind::Flash:
        return std::max(a.rate, a.peak) / 1000.0;
    }
    return a.rate / 1000.0;
}

double
ArrivalProcess::rateAt(const PhaseSpec &p, double t) const
{
    const ArrivalSpec &a = p.arrival;
    double local = t - double(p.start);
    // A bounded final phase keeps running past its nominal end; its
    // rate is clamped at the end-of-phase value.
    if (p.duration > 0)
        local = std::min(local, double(p.duration));
    switch (a.kind) {
      case ArrivalSpec::Kind::Fixed:
      case ArrivalSpec::Kind::Poisson:
        return a.rate / 1000.0;
      case ArrivalSpec::Kind::Diurnal:
        return a.rate *
               (1.0 + a.amplitude *
                          std::sin(2.0 * kPi * local /
                                   double(a.period))) /
               1000.0;
      case ArrivalSpec::Kind::Flash: {
        const double ramp = double(a.ramp);
        const double dur = double(p.duration);
        double r;
        if (local < ramp)
            r = a.rate + (a.peak - a.rate) * (local / ramp);
        else if (local > dur - ramp)
            r = a.rate + (a.peak - a.rate) * ((dur - local) / ramp);
        else
            r = a.peak;
        return std::max(r, 0.0) / 1000.0;
      }
    }
    return a.rate / 1000.0;
}

ArrivalEvent
ArrivalProcess::next()
{
    while (true) {
        const PhaseSpec &p = scen_->phases[phase_];
        const bool last = phase_ + 1 >= scen_->phases.size();
        const double end = last
            ? std::numeric_limits<double>::infinity()
            : double(scen_->phases[phase_ + 1].start);
        const ArrivalSpec &a = p.arrival;

        double cand;
        bool accept = true;
        switch (a.kind) {
          case ArrivalSpec::Kind::Fixed:
            cand = t_ + 1000.0 / a.rate;
            break;
          case ArrivalSpec::Kind::Poisson:
            cand = t_ - std::log(1.0 - rng_.nextDouble()) *
                            (1000.0 / a.rate);
            break;
          default: {
            // Lewis-Shedler thinning: candidate gaps at the phase's
            // peak rate, each accepted with probability rate(t)/peak.
            const double lmax = maxRate(p);
            cand = t_ - std::log(1.0 - rng_.nextDouble()) / lmax;
            if (cand < end)
                accept = rng_.nextDouble() * lmax <= rateAt(p, cand);
            break;
          }
        }

        if (cand >= end) {
            // Crossed into the next phase: restart the gap draw under
            // its process (memoryless for Poisson; a deliberate,
            // deterministic simplification for fixed-rate).
            t_ = end;
            ++phase_;
            continue;
        }
        t_ = cand;
        if (!accept)
            continue;
        return ArrivalEvent{static_cast<std::uint64_t>(t_), phase_};
    }
}

} // namespace hp
