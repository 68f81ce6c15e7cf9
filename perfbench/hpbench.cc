/**
 * @file
 * One pass of one benchmark workload, in a process of its own.
 *
 *   hpbench --workload <exact-grid|sampled-grid|consolidated-scenario>
 *           --seed <n> --jobs <n> [--trace 0|1] [--out <dir>]
 *
 * A pass has three phases, each timed from outside the library:
 *
 *  1. setup: ProgramBuilder builds every binary the workload runs, and
 *     the simulator instances of phase 3 are constructed;
 *  2. entry: the grid runs through the library entry point the paper
 *     benches use (Executor::runPairs, which reaches runMaybeSampled);
 *  3. replay: the same grid runs again as the public calls that entry
 *     point is made of (runWarmup, fastForward, Checkpoint::capture,
 *     ...), each call timed, on a pool of the same size. The replay
 *     must reproduce phase 2 bit for bit.
 *
 * The consolidated workload has no phase 2: runMultiTenant(config) is
 * MultiCoreSimulator(config).run(), and phase 3 runs exactly that,
 * with construction counted as setup.
 *
 * Every simulation is checked from outside (see checkResult). The
 * pass prints one JSON object on its last stdout line; perfbench/run.py
 * runs passes until its time is up and aggregates them. With --trace 1
 * every timed call also records a span (name, start, end, parent),
 * kept in memory and written to --out at exit, and a few probes that
 * only the per-layer metrics need run after the replay.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/miss_attribution.hh"
#include "obs/obs.hh"
#include "sim/checkpoint.hh"
#include "sim/executor.hh"
#include "sim/multicore.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "workload/app_profile.hh"
#include "workload/latency_tracker.hh"
#include "workload/program_builder.hh"
#include "workload/request_engine.hh"
#include "workload/scenario.hh"
#include "workload/scenario_engine.hh"

namespace
{

using namespace hp;

// ------------------------------------------------------------------
// Timing and spans

double
nowSeconds()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

struct Span
{
    std::string name;
    int parent = -1;
    unsigned thread = 0;
    double start = 0.0;
    double end = 0.0;
};

/** Seconds, work units (instructions or bytes) and calls of one name. */
struct Total
{
    double seconds = 0.0;
    double work = 0.0;
    std::uint64_t calls = 0;

    double perSecond() const { return seconds > 0 ? work / seconds : 0; }
    double msPerCall() const { return calls ? 1e3 * seconds / calls : 0; }
};

/** Every timed call adds to its name's Total; spans are kept only
 *  when tracing. */
class Recorder
{
  public:
    bool tracing = false;

    int
    open(const std::string &name, int parent, unsigned thread,
         double start)
    {
        if (!tracing)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, parent, thread, start, start});
        return int(spans_.size()) - 1;
    }

    void
    close(const std::string &name, int id, double start, double end,
          double work)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Total &t = totals_[name];
        t.seconds += end - start;
        t.work += work;
        ++t.calls;
        if (id >= 0)
            spans_[std::size_t(id)].end = end;
    }

    Total
    total(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = totals_.find(name);
        return it == totals_.end() ? Total{} : it->second;
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Total> totals_;
    std::vector<Span> spans_;
};

Recorder g_rec;
thread_local int t_parent = -1;
thread_local unsigned t_thread = 0;

/** Times the enclosing scope as one call of @p name; nested Timed
 *  scopes on the same thread become its child spans. */
class Timed
{
  public:
    explicit Timed(std::string name, double work = 0.0)
        : name_(std::move(name)), work_(work), start_(nowSeconds()),
          prev_(t_parent)
    {
        id_ = g_rec.open(name_, t_parent, t_thread, start_);
        if (id_ >= 0)
            t_parent = id_;
    }

    ~Timed()
    {
        g_rec.close(name_, id_, start_, nowSeconds(), work_);
        t_parent = prev_;
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    void setWork(double work) { work_ = work; }

  private:
    std::string name_;
    double work_;
    double start_;
    int prev_;
    int id_ = -1;
};

/** Failures of one pass: a thrown simulation or a failed check. */
class Failures
{
  public:
    void
    add(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        messages_.push_back(what);
    }

    std::vector<std::string>
    messages() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return messages_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::string> messages_;
};

/**
 * Runs job(0..n-1) on min(workers, n) threads drawing from one queue
 * (a closed loop: a worker takes the next job when its last one ends).
 * A job that throws is recorded against @p label(i) and the pass goes
 * on. All threads are joined before return.
 */
void
drain(unsigned workers, std::size_t n,
      const std::function<void(std::size_t)> &job,
      const std::function<std::string(std::size_t)> &label,
      Failures &failures)
{
    std::atomic<std::size_t> next{0};
    const int parent = t_parent;
    auto loop = [&](unsigned thread) {
        t_parent = parent;
        t_thread = thread;
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                job(i);
            } catch (const std::exception &e) {
                failures.add(label(i) + ": threw: " + e.what());
            } catch (...) {
                failures.add(label(i) + ": threw");
            }
        }
    };
    std::vector<std::thread> threads;
    const std::size_t count = std::min<std::size_t>(workers, n);
    for (std::size_t t = 0; t < count; ++t)
        threads.emplace_back(loop, unsigned(t + 1));
    for (std::thread &t : threads)
        t.join();
}

// ------------------------------------------------------------------
// Workloads

enum class Shape
{
    Exact,
    Sampled,
    Consolidated,
};

/** Apps of the two grid workloads: four distinct binaries, from the
 *  database and web-framework halves of Table 2. */
const std::vector<std::string> kGridApps = {"tidb-tpcc", "mysql-sysbench",
                                            "caddy", "gin"};

/** Core-0 tenants and the scenario services of consolidated-scenario. */
const std::vector<std::string> kConsolidatedApps = {
    "gin", "echo", "tidb-tpcc", "mysql-sysbench"};

/** Requests the scenario core must complete in the measurement phase,
 *  so that p90 keeps at least ten samples beyond it. */
constexpr std::uint64_t kMinRequests = 100;

/** Instructions each standalone engine probe pulls. */
constexpr std::uint64_t kEngineProbeInsts = 4'000'000;

struct Workload
{
    Shape shape = Shape::Exact;
    std::vector<std::string> apps;
    std::string scenario;
    /** Every distinct simulation. Each app's FDIP run comes first. */
    std::vector<SimConfig> sims;
};

/** A config built field by field (not through defaultConfig), so
 *  HP_SAMPLE or HP_SCENARIO in the environment cannot change the work.
 *  Budgets stay at the Table 1 defaults (1.5M warmup, 3M measure). */
SimConfig
gridConfig(const std::string &app, PrefetcherKind kind)
{
    SimConfig c;
    c.workload = app;
    c.prefetcher = kind;
    // What defaultConfig sets for the paper benches.
    if (kind == PrefetcherKind::Hierarchical)
        c.hier.trackBundleStats = true;
    return c;
}

/**
 * Core 1's traffic: two services in disjoint address windows behind
 * Poisson arrivals. A request averages ~245k instructions and ~340k
 * cycles of service, so 0.0021 requests per kilocycle is ~70%
 * utilization. The workload seed feeds the scenario's own seed line.
 */
std::string
scenarioText(std::uint64_t seed)
{
    return "scenario perfbench-consolidated\n"
           "seed " +
           std::to_string(seed) +
           "\n"
           "service db profile=tidb-tpcc\n"
           "service kv profile=mysql-sysbench\n"
           "chain txn services=db weight=3\n"
           "chain get services=kv weight=1\n"
           "phase steady arrival=poisson rate=0.0021\n";
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    if (name == "exact-grid") {
        w.shape = Shape::Exact;
        w.apps = kGridApps;
        for (const std::string &app : kGridApps) {
            for (PrefetcherKind k :
                 {PrefetcherKind::None, PrefetcherKind::EFetch,
                  PrefetcherKind::Mana, PrefetcherKind::Eip,
                  PrefetcherKind::Hierarchical})
                w.sims.push_back(gridConfig(app, k));
        }
    } else if (name == "sampled-grid") {
        // The --fast spec 12,30000,10000 with the workload seed as the
        // stratum seed, over a measurement phase long enough that
        // fast-forward is most of the host time: 11.5M fast-forward
        // instructions against 0.48M in the windows.
        w.shape = Shape::Sampled;
        w.apps = kGridApps;
        for (const std::string &app : kGridApps) {
            for (PrefetcherKind k :
                 {PrefetcherKind::None, PrefetcherKind::Hierarchical}) {
                SimConfig c = gridConfig(app, k);
                c.measureInsts = 12'000'000;
                c.sample.intervals = 12;
                c.sample.windowInsts = 30'000;
                c.sample.detailWarmupInsts = 10'000;
                c.sample.seed = seed;
                w.sims.push_back(c);
            }
        }
    } else if (name == "consolidated-scenario") {
        // Tenants are placed round-robin: core 0 time-slices gin and
        // echo, core 1 runs the scenario alone.
        w.shape = Shape::Consolidated;
        w.apps = kConsolidatedApps;
        w.scenario = scenarioText(seed);
        for (PrefetcherKind k :
             {PrefetcherKind::None, PrefetcherKind::Hierarchical}) {
            SimConfig c = gridConfig("tidb-tpcc", k);
            c.scenario = w.scenario;
            c.mt.tenants = {"gin", "@scenario", "echo"};
            c.mt.cores = 2;
            c.mt.metadataReadBytesPerCycle = 8;
            c.mt.dramFillGapCycles = 4;
            c.warmupInsts = 1'000'000;
            // ~114 requests at ~245k instructions each.
            c.measureInsts = 28'000'000;
            w.sims.push_back(c);
        }
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return w;
}

std::string
simLabel(const SimConfig &c)
{
    const std::string who = c.mt.enabled() ? "consolidated" : c.workload;
    return who + "/" + prefetcherName(c.prefetcher);
}

/** Instructions one simulation of @p c commits, in every mode. */
std::uint64_t
simulatedInsts(const SimConfig &c)
{
    if (c.mt.enabled())
        return c.mt.coreCount() * (c.warmupInsts + c.measureInsts);
    if (!c.sample.enabled())
        return c.warmupInsts + c.measureInsts;
    // The scout fast-forwards to the last fork point; every interval
    // then runs its detailed warmup and its window.
    std::uint64_t ff = 0;
    std::uint64_t detailed = 0;
    for (std::uint64_t start : intervalStarts(c.measureInsts, c.sample)) {
        const std::uint64_t warm =
            std::min(c.sample.detailWarmupInsts, start);
        ff = start - warm;
        detailed +=
            warm + std::min(c.sample.windowInsts, c.measureInsts - start);
    }
    return c.warmupInsts + ff + detailed;
}

// ------------------------------------------------------------------
// Correctness checks

std::uint64_t
valueOr0(const StatsSnapshot &s, const std::string &path)
{
    return s.has(path) ? s.value(path) : 0;
}

/** The six miss-cause classes must partition l1i.demand_misses.
 *  @p slack absorbs the per-counter rounding of scaled (sampled)
 *  snapshots; exact snapshots get none. */
void
checkPartition(const StatsSnapshot &s, const std::string &prefix,
               std::uint64_t slack, const std::string &who,
               Failures &failures)
{
    std::uint64_t sum = 0;
    for (unsigned c = 0; c < kNumMissCauses; ++c) {
        sum += valueOr0(s, prefix + "missAttribution." +
                               missCauseName(static_cast<MissCause>(c)));
    }
    const std::uint64_t misses = valueOr0(s, prefix + "l1i.demand_misses");
    const std::uint64_t diff = sum > misses ? sum - misses : misses - sum;
    if (!s.has(prefix + "missAttribution.never_prefetched") ||
        diff > slack) {
        failures.add(who + ": " + prefix + "missAttribution sums to " +
                     std::to_string(sum) + ", l1i.demand_misses is " +
                     std::to_string(misses));
    }
}

void
checkResult(const SimConfig &c, const SimMetrics &m, Failures &failures)
{
    const std::string who = simLabel(c);
    const unsigned cores = c.mt.enabled() ? c.mt.coreCount() : 1;
    // The commit that crosses the warmup boundary may retire up to
    // commitWidth - 1 instructions on the warmup side of it.
    const std::uint64_t budget = c.measureInsts - std::min<std::uint64_t>(
        c.measureInsts, c.commitWidth - 1);
    if (!(m.ipc() > 0.0) || !std::isfinite(m.ipc()))
        failures.add(who + ": IPC is not finite and positive");

    if (c.sample.enabled()) {
        checkPartition(m.stats, "", kNumMissCauses, who, failures);
        const SamplingInfo *info = m.sampling.get();
        if (!info || info->intervals.size() != c.sample.intervals) {
            failures.add(who + ": sampled run lost intervals");
        } else {
            for (const SamplingInfo::Interval &iv : info->intervals) {
                if (iv.instructions < c.sample.windowInsts)
                    failures.add(who + ": window short of its budget");
            }
            if (!std::isfinite(info->ipcMean) || info->ipcMean <= 0 ||
                !std::isfinite(info->ipcCi95) || info->ipcCi95 <= 0)
                failures.add(who + ": sampled IPC or CI not finite "
                                   "and positive");
        }
    } else if (cores == 1) {
        checkPartition(m.stats, "", 0, who, failures);
        if (m.instructions < budget)
            failures.add(who + ": measured instructions short of the "
                               "budget");
    }

    if (c.mt.enabled()) {
        checkPartition(m.stats, "", 0, who, failures);
        for (unsigned i = 0; i < cores; ++i) {
            const std::string prefix = "core" + std::to_string(i) + ".";
            checkPartition(m.stats, prefix, 0, who, failures);
            if (valueOr0(m.stats, prefix + "sim.instructions") < budget)
                failures.add(who + ": " + prefix +
                             " measured instructions short of the budget");
        }
        // Every aggregate counter is the sum of its per-core copies,
        // except sim.cycles, the wall clock, which is their maximum.
        for (const auto &[path, value] : m.stats.entries()) {
            if (path.rfind("core", 0) == 0 || path.rfind("mt.", 0) == 0)
                continue;
            std::uint64_t sum = 0;
            std::uint64_t max = 0;
            for (unsigned i = 0; i < cores; ++i) {
                const std::uint64_t v = valueOr0(
                    m.stats, "core" + std::to_string(i) + "." + path);
                sum += v;
                max = std::max(max, v);
            }
            if ((path == "sim.cycles" ? max : sum) != value)
                failures.add(who + ": core counters do not sum to " +
                             path);
        }
    }

    if (!c.scenario.empty()) {
        const LatencyReport *lat = m.latency.get();
        if (!lat || lat->completed < kMinRequests) {
            failures.add(who + ": scenario completed fewer than " +
                         std::to_string(kMinRequests) + " requests");
        } else if (lat->p50() > latencyPercentile(lat->latencySamples,
                                                  0.90)) {
            failures.add(who + ": request p50 above p90");
        }
    }
}

/** FNV-1a over every simulated output of the pass, in grid order. */
class Digest
{
  public:
    void
    add(const std::string &s)
    {
        for (unsigned char ch : s)
            h_ = (h_ ^ ch) * 0x100000001b3ULL;
        h_ = (h_ ^ 0xff) * 0x100000001b3ULL;
    }

    void add(std::uint64_t v) { add(std::to_string(v)); }

    void
    add(const SimMetrics &m)
    {
        for (const auto &[path, value] : m.stats.entries()) {
            add(path);
            add(value);
        }
        if (m.latency) {
            for (std::uint64_t v : m.latency->latencySamples)
                add(v);
        }
        if (m.sampling) {
            for (const SamplingInfo::Interval &iv : m.sampling->intervals) {
                add(iv.startInst);
                add(iv.instructions);
                add(iv.cycles);
            }
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ------------------------------------------------------------------
// The replay: each entry point spelled as its public calls

/** The simulator instances one replayed simulation needs, built in
 *  setup so construction is not counted as simulation time. */
struct Instances
{
    std::unique_ptr<Simulator> main;  ///< exact: the run; sampled: warmup
    std::unique_ptr<Simulator> scout; ///< sampled: fast-forward stream
    std::unique_ptr<Simulator> window; ///< sampled: interval replays
    std::unique_ptr<MultiCoreSimulator> multi;
};

struct ReplayResult
{
    SimMetrics metrics;
    /** Sampled: each window's own metrics, in interval order. */
    std::vector<SimMetrics> windows;
    /** The warmup checkpoint (exact and sampled). */
    std::optional<Checkpoint> warmBlob;
};

Checkpoint
timedCapture(Simulator &sim, const std::string &key)
{
    Timed t("ckpt.capture");
    Checkpoint ck = Checkpoint::capture(sim, key);
    t.setWork(double(ck.payload().size()));
    return ck;
}

void
timedRestore(const Checkpoint &ck, Simulator &sim)
{
    Timed t("ckpt.restore", double(ck.payload().size()));
    std::string err;
    if (!ck.restoreInto(sim, &err))
        throw std::runtime_error("checkpoint restore failed: " + err);
}

/** runCheckpointed as the producer of its warmup class runs it. */
void
replayExact(const SimConfig &c, Instances &in, ReplayResult &out)
{
    Simulator &sim = *in.main;
    {
        Timed t("sim.runWarmup", double(c.warmupInsts));
        sim.runWarmup();
    }
    out.warmBlob = timedCapture(
        sim, ExperimentRunner::configKey(warmupConfig(c)));
    Timed t("sim.finishRun");
    out.metrics = sim.finishRun();
    t.setWork(double(out.metrics.instructions));
}

/** runSampled with no checkpoint directory: warm once, fast-forward a
 *  scout through the measurement phase, fork it before each window
 *  and replay the window from the fork. */
void
replaySampled(const SimConfig &c, Instances &in, ReplayResult &out)
{
    const SampleConfig &sc = c.sample;
    {
        Timed t("sim.runWarmup", double(c.warmupInsts));
        in.main->runWarmup();
    }
    out.warmBlob = timedCapture(
        *in.main, ExperimentRunner::configKey(warmupConfig(c)));
    in.main.reset();
    timedRestore(*out.warmBlob, *in.scout);

    SimConfig full = c;
    full.sample = SampleConfig{};
    const SimConfig mcfg = measurementConfig(full);
    std::uint64_t scout_rel = 0;
    for (std::uint64_t start : intervalStarts(c.measureInsts, sc)) {
        const std::uint64_t warm = std::min(sc.detailWarmupInsts, start);
        const std::uint64_t rel = start - warm;
        {
            Timed t("sim.fastForward", double(rel - scout_rel));
            in.scout->fastForward(rel - scout_rel);
        }
        scout_rel = rel;
        const Checkpoint fork = timedCapture(
            *in.scout, intervalCheckpointKey(mcfg, start, warm));
        timedRestore(fork, *in.window);
        {
            Timed t("sim.advanceDetailed", double(warm));
            in.window->advanceDetailed(warm);
        }
        const std::uint64_t win =
            std::min(sc.windowInsts, c.measureInsts - start);
        Timed t("sim.measureWindow");
        out.windows.push_back(in.window->measureWindow(win));
        t.setWork(double(out.windows.back().instructions));
    }
    // Windows aggregate as runSampled aggregates them: CPI is the
    // sampled quantity, and its mean maps back to the IPC estimate.
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    for (const SimMetrics &wm : out.windows) {
        insts += wm.instructions;
        cycles += wm.cycles;
    }
    out.metrics.instructions = insts;
    out.metrics.cycles = cycles;
}

void
replayConsolidated(const SimConfig &c, Instances &in, ReplayResult &out)
{
    Timed t("multicore.run", double(simulatedInsts(c)));
    out.metrics = in.multi->run();
}

/** Checks that the replay reproduced the entry point exactly. */
void
checkReplay(const SimConfig &c, const SimMetrics &entry,
            const ReplayResult &rep, Failures &failures)
{
    const std::string who = simLabel(c);
    if (!c.sample.enabled()) {
        if (entry.stats.entries() != rep.metrics.stats.entries())
            failures.add(who + ": replay differs from the entry point");
        return;
    }
    const SamplingInfo *info = entry.sampling.get();
    bool same = info && info->intervals.size() == rep.windows.size();
    for (std::size_t i = 0; same && i < rep.windows.size(); ++i) {
        same = info->intervals[i].instructions ==
                   rep.windows[i].instructions &&
               info->intervals[i].cycles == rep.windows[i].cycles;
    }
    if (!same)
        failures.add(who + ": replayed windows differ from runSampled");
    for (const SimMetrics &wm : rep.windows)
        checkPartition(wm.stats, "", 0, who, failures);
}

// ------------------------------------------------------------------
// Simulated metrics

const char *
shortName(PrefetcherKind k)
{
    switch (k) {
      case PrefetcherKind::None: return "fdip";
      case PrefetcherKind::EFetch: return "efetch";
      case PrefetcherKind::Mana: return "mana";
      case PrefetcherKind::Eip: return "eip";
      case PrefetcherKind::Hierarchical: return "hp";
      default: return "other";
    }
}

/** Registry counters summed over the apps of one prefetcher. */
struct CounterSums
{
    std::map<std::string, double> sum;
    double insts = 0.0;
    double cycles = 0.0;
    std::vector<PairedMetrics> pairs;

    double get(const std::string &p) const
    {
        auto it = sum.find(p);
        return it == sum.end() ? 0.0 : it->second;
    }
    double pki(const std::string &p) const
    {
        return insts > 0 ? 1e3 * get(p) / insts : 0.0;
    }
};

void
addCounters(CounterSums &s, const SimMetrics &m)
{
    for (const auto &[path, value] : m.stats.entries()) {
        if (path.rfind("core", 0) != 0)
            s.sum[path] += double(value);
    }
    s.insts += double(m.instructions);
    s.cycles += double(m.cycles);
}

using MetricMap = std::map<std::string, double>;

/** The simulated per-layer metrics of one prefetcher, by layer. */
void
prefetcherMetrics(PrefetcherKind k, const CounterSums &s, MetricMap &out)
{
    const std::string sfx = std::string(".") + shortName(k);
    const bool has_ext = k != PrefetcherKind::None;
    const bool fe_obs =
        k == PrefetcherKind::None || k == PrefetcherKind::Hierarchical;
    if (fe_obs) {
        out["frontend.btb_mpki" + sfx] = s.pki("btb.misses");
        out["frontend.cond_mispred_pki" + sfx] = s.pki("cond.mispredicts");
        out["frontend.fetch_stall_frac" + sfx] =
            s.get("sim.fetch_stall_cycles") / s.get("sim.cycles");
        out["frontend.backend_stall_frac" + sfx] =
            s.get("sim.backend_stall_cycles") / s.get("sim.cycles");
        for (unsigned c = 0; c < kNumMissCauses; ++c) {
            const std::string cause =
                missCauseName(static_cast<MissCause>(c));
            out["obs.miss." + cause + "_pki" + sfx] =
                s.pki("missAttribution." + cause);
        }
    }
    out["cache.l1i_mpki" + sfx] = s.pki("l1i.demand_misses");
    out["cache.l2i_mpki" + sfx] = s.pki("l2i.demand_misses");
    out["cache.llc_mpki" + sfx] = s.pki("llc.demand_misses");
    out["cache.itlb_mpki" + sfx] = s.pki("itlb.misses");
    out["cache.dram_bytes_pki" + sfx] =
        s.pki("dram.demand_bytes") + s.pki("dram.fdip_bytes") +
        s.pki("dram.ext_bytes") + s.pki("dram.metadata_read_bytes") +
        s.pki("dram.metadata_write_bytes");
    if (has_ext && !s.pairs.empty()) {
        double acc = 0, late = 0, cov = 0;
        for (const PairedMetrics &p : s.pairs) {
            acc += p.accuracy;
            late += p.lateFraction;
            cov += p.coverageL1;
        }
        const double n = double(s.pairs.size());
        out["prefetch.ext_issued_pki" + sfx] = s.pki("ext.issued");
        out["prefetch.ext_accuracy" + sfx] = acc / n;
        out["prefetch.ext_late_frac" + sfx] = late / n;
        out["prefetch.coverage_l1" + sfx] = cov / n;
    }
    if (k == PrefetcherKind::Hierarchical) {
        const double lookups =
            s.get("hier.mat_hits") + s.get("hier.mat_misses");
        out["core.mat_hit_rate" + sfx] =
            lookups > 0 ? s.get("hier.mat_hits") / lookups : 0.0;
        out["core.metadata_bytes_pki" + sfx] =
            s.pki("hier.metadata_read_bytes") +
            s.pki("hier.metadata_write_bytes");
        out["core.replay_prefetches_pki" + sfx] =
            s.pki("hier.replay_prefetches");
    }
}

/**
 * The paper's result over the workload's HP/FDIP pairs, every
 * prefetcher's layer counters, and (sampled, consolidated) the
 * metrics that explain them.
 */
MetricMap
simulatedMetrics(const Workload &w, const std::vector<SimMetrics> &res)
{
    MetricMap out;
    std::map<PrefetcherKind, CounterSums> by_kind;
    double log_speedup = 0.0;
    unsigned hp_pairs = 0;
    double ci_pct = 0.0, detailed_frac = 0.0;
    unsigned sampled = 0;

    const SimMetrics *base = nullptr;
    for (std::size_t i = 0; i < w.sims.size(); ++i) {
        const SimConfig &c = w.sims[i];
        const SimMetrics &m = res[i];
        if (c.prefetcher == PrefetcherKind::None)
            base = &m; // each app's FDIP run comes first
        CounterSums &s = by_kind[c.prefetcher];
        addCounters(s, m);
        if (c.prefetcher != PrefetcherKind::None && base) {
            const PairedMetrics p = pairedMetrics(m, *base);
            s.pairs.push_back(p);
            if (c.prefetcher == PrefetcherKind::Hierarchical) {
                log_speedup += std::log(1.0 + p.speedup);
                ++hp_pairs;
            }
        }
        if (m.sampling) {
            ci_pct += 100.0 * m.sampling->ipcCi95 / m.sampling->ipcMean;
            detailed_frac +=
                double(m.sampling->detailedInsts) / double(c.measureInsts);
            ++sampled;
        }
        if (c.prefetcher == PrefetcherKind::Hierarchical && m.latency) {
            const LatencyReport &lat = *m.latency;
            out["req_p50_kcycles"] = double(lat.p50()) / 1e3;
            out["req_p90_kcycles"] =
                double(latencyPercentile(lat.latencySamples, 0.90)) / 1e3;
            out["req_samples"] = double(lat.latencySamples.size());
            out["latency.queue_frac"] =
                lat.latencyCycles
                    ? double(lat.latencyCycles - lat.serviceCycles) /
                          double(lat.latencyCycles)
                    : 0.0;
        }
        if (c.prefetcher == PrefetcherKind::Hierarchical && c.mt.enabled()) {
            out["multicore.context_switches"] =
                double(valueOr0(m.stats, "mt.context_switches"));
            out["multicore.md_arbiter_stall_cycles"] = double(
                valueOr0(m.stats, "mt.metadata_arbiter_stall_cycles"));
            out["multicore.dram_queue_cycles"] =
                double(valueOr0(m.stats, "mt.dram_queue_cycles"));
        }
    }
    out["ipc_speedup_hp"] =
        hp_pairs ? std::exp(log_speedup / hp_pairs) : 0.0;
    out["l1i_mpki_hp"] =
        by_kind[PrefetcherKind::Hierarchical].pki("l1i.demand_misses");
    if (sampled) {
        out["sampling.ipc_ci95_pct"] = ci_pct / sampled;
        out["sampling.detailed_frac"] = detailed_frac / sampled;
    }
    for (const auto &[kind, sums] : by_kind)
        prefetcherMetrics(kind, sums, out);
    return out;
}

// ------------------------------------------------------------------
// Traced-pass probes and span output

/** Standalone stream generation: each engine the workload runs. */
void
engineProbe(const Workload &w)
{
    DynInst inst;
    auto pull = [&inst](InstStream &stream) {
        Timed t("workload.engine", double(kEngineProbeInsts));
        for (std::uint64_t i = 0; i < kEngineProbeInsts; ++i)
            stream.next(inst);
    };
    std::vector<std::string> apps = w.apps;
    if (w.shape == Shape::Consolidated) {
        ScenarioEngine scenario(cachedScenario(w.scenario));
        pull(scenario);
        apps.clear();
        for (const std::string &t : w.sims.front().mt.tenants) {
            if (t != "@scenario")
                apps.push_back(t);
        }
    }
    for (const std::string &app : apps) {
        const AppProfile &profile = appProfile(app);
        RequestEngine engine(ProgramBuilder::cached(profile), profile);
        pull(engine);
    }
}

/** Blob round trip: encode and decode each warmup checkpoint, and
 *  restore it into a fresh instance where the replay never restores
 *  one (the exact grid). */
void
checkpointProbe(const Workload &w, const std::vector<ReplayResult> &rep)
{
    std::optional<Checkpoint> scenario_blob;
    std::vector<std::pair<const SimConfig *, const Checkpoint *>> blobs;
    SimConfig scenario_cfg;
    if (w.shape == Shape::Consolidated) {
        // The scenario tenant alone on one core, warmed like core 1.
        scenario_cfg = w.sims.back();
        scenario_cfg.mt = MultiTenantConfig{};
        scenario_cfg.workload =
            scenarioPrimaryProfile(*cachedScenario(w.scenario));
        scenario_cfg.measureInsts = 0;
        Simulator sim(scenario_cfg);
        sim.runWarmup();
        scenario_blob = timedCapture(sim, "scenario-probe");
        blobs.emplace_back(&scenario_cfg, &*scenario_blob);
    } else {
        for (std::size_t i = 0; i < rep.size(); ++i) {
            if (rep[i].warmBlob)
                blobs.emplace_back(&w.sims[i], &*rep[i].warmBlob);
        }
    }
    for (const auto &[cfg, blob] : blobs) {
        std::vector<std::uint8_t> bytes;
        {
            Timed t("ckpt.encode", double(blob->payload().size()));
            bytes = blob->encode();
        }
        std::string err;
        std::shared_ptr<const Checkpoint> back;
        {
            Timed t("ckpt.decode", double(bytes.size()));
            back = Checkpoint::decode(bytes, &err);
        }
        if (!back)
            throw std::runtime_error("checkpoint decode failed: " + err);
        if (w.shape != Shape::Sampled) {
            Simulator fresh(*cfg);
            timedRestore(*back, fresh);
        }
    }
}

/** Layer of a span: the part of its name before the first dot. */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

/** Self time per layer: each span's duration minus the union of its
 *  children's intervals (children may overlap on worker threads). */
MetricMap
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[std::size_t(s.parent)].emplace_back(s.start, s.end);
    }
    MetricMap out;
    for (const char *layer :
         {"bench", "workload", "sim", "ckpt", "multicore", "executor"})
        out[std::string("self_s.") + layer] = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto &[a, b] : iv) {
            const double s = std::max(a, spans[i].start);
            const double e = std::min(b, spans[i].end);
            if (e <= s)
                continue;
            if (s > hi) {
                covered += std::max(0.0, hi - lo);
                lo = s;
                hi = e;
            } else {
                hi = std::max(hi, e);
            }
        }
        covered += std::max(0.0, hi - lo);
        out["self_s." + layerOf(spans[i].name)] +=
            spans[i].end - spans[i].start - covered;
    }
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonObject(const MetricMap &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += (out.size() > 1 ? ", " : "") + jsonString(k) + ": " +
               jsonNumber(v);
    return out + "}";
}

/** Chrome trace-event JSON (loads in Perfetto): one complete event
 *  per span, its id and parent in args. */
void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
            << ", \"ts\": " << jsonNumber(s.start * 1e6)
            << ", \"dur\": " << jsonNumber((s.end - s.start) * 1e6)
            << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
            << "}}";
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned jobs = 1;
    bool trace = false;
    std::string out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--jobs")
            a.jobs = unsigned(std::stoul(v));
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.out = v;
        else
            throw std::runtime_error("unknown argument " + k);
    }
    if (argc % 2 == 0)
        throw std::runtime_error("arguments come in --name value pairs");
    if (a.jobs == 0)
        throw std::runtime_error("--jobs must be at least 1");
    return a;
}

int
runPass(const Args &args)
{
    const Workload w = makeWorkload(args.workload, args.seed);
    const std::size_t n = w.sims.size();
    g_rec.tracing = args.trace;

    // Miss attribution feeds the partition check and the obs.miss.*
    // metrics; request spans belong to the scenario workload.
    obs::config().attribution = true;
    obs::config().spans = w.shape == Shape::Consolidated;

    Failures failures;
    std::vector<SimMetrics> entry(n);
    std::vector<ReplayResult> replay(n);
    std::vector<Instances> inst(n);
    double setup_s = 0, entry_s = 0, replay_s = 0;
    std::uint64_t insts = 0;
    for (const SimConfig &c : w.sims)
        insts += simulatedInsts(c);

    {
        Timed pass("bench.pass");
        {
            Timed t("bench.setup");
            const double t0 = nowSeconds();
            for (const std::string &app : w.apps) {
                Timed b("workload.build");
                ProgramBuilder::cached(appProfile(app));
            }
            if (!w.scenario.empty()) {
                Timed b("workload.scenario_parse");
                cachedScenario(w.scenario);
            }
            for (std::size_t i = 0; i < n; ++i) {
                const SimConfig &c = w.sims[i];
                Timed ct("sim.ctor");
                if (w.shape == Shape::Consolidated) {
                    inst[i].multi = std::make_unique<MultiCoreSimulator>(c);
                    continue;
                }
                inst[i].main = std::make_unique<Simulator>(c);
                if (w.shape == Shape::Sampled) {
                    inst[i].scout = std::make_unique<Simulator>(c);
                    inst[i].window = std::make_unique<Simulator>(c);
                }
            }
            setup_s = nowSeconds() - t0;
        }

        if (w.shape != Shape::Consolidated) {
            Timed t("executor.runPairs");
            const double t0 = nowSeconds();
            std::vector<SimConfig> pair_cfgs;
            std::vector<std::size_t> run_idx, base_idx;
            std::size_t base = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (w.sims[i].prefetcher == PrefetcherKind::None) {
                    base = i;
                    continue;
                }
                pair_cfgs.push_back(w.sims[i]);
                run_idx.push_back(i);
                base_idx.push_back(base);
            }
            try {
                Executor ex(args.jobs);
                std::vector<RunPair> pairs = ex.runPairs(pair_cfgs);
                for (std::size_t p = 0; p < pairs.size(); ++p) {
                    entry[run_idx[p]] = std::move(pairs[p].run);
                    entry[base_idx[p]] = std::move(pairs[p].base);
                }
            } catch (const std::exception &e) {
                failures.add(std::string("entry point threw: ") + e.what());
            }
            entry_s = nowSeconds() - t0;
        }

        {
            Timed t("bench.replay");
            const double t0 = nowSeconds();
            drain(
                args.jobs, n,
                [&](std::size_t i) {
                    Timed job("bench.job");
                    const SimConfig &c = w.sims[i];
                    switch (w.shape) {
                      case Shape::Exact: replayExact(c, inst[i], replay[i]); break;
                      case Shape::Sampled: replaySampled(c, inst[i], replay[i]); break;
                      case Shape::Consolidated:
                        replayConsolidated(c, inst[i], replay[i]);
                        break;
                    }
                    inst[i] = Instances{};
                },
                [&](std::size_t i) { return simLabel(w.sims[i]); },
                failures);
            replay_s = nowSeconds() - t0;
        }

        if (args.trace) {
            Timed t("bench.probes");
            engineProbe(w);
            checkpointProbe(w, replay);
        }
    }

    // The results every metric and check reads: the entry point's,
    // or the replay's where the replay is the entry point.
    std::vector<SimMetrics> results(n);
    for (std::size_t i = 0; i < n; ++i) {
        results[i] = w.shape == Shape::Consolidated ? replay[i].metrics
                                                    : entry[i];
        checkResult(w.sims[i], results[i], failures);
        if (w.shape != Shape::Consolidated)
            checkReplay(w.sims[i], entry[i], replay[i], failures);
    }
    Digest digest;
    for (std::size_t i = 0; i < n; ++i) {
        digest.add(simLabel(w.sims[i]));
        digest.add(results[i]);
    }

    MetricMap host;
    host["setup_s"] = setup_s;
    host["entry_s"] = entry_s;
    host["entry_insts"] = w.shape == Shape::Consolidated ? 0.0 : double(insts);
    host["replay_s"] = replay_s;
    host["replay_insts"] = double(insts);
    double det_s = 0, det_insts = 0;
    for (const char *name :
         {"sim.runWarmup", "sim.finishRun", "sim.advanceDetailed",
          "sim.measureWindow", "multicore.run"}) {
        const Total t = g_rec.total(name);
        det_s += t.seconds;
        det_insts += t.work;
    }
    host["detailed_s"] = det_s;
    host["detailed_insts"] = det_insts;
    host["peak_rss_mb"] = peakRssMb();

    MetricMap layers;
    auto mips = [](const Total &t) { return t.perSecond() / 1e6; };
    layers["workload.build_s"] = g_rec.total("workload.build").seconds +
                                 g_rec.total("workload.scenario_parse").seconds;
    layers["sim.ctor_s"] = g_rec.total("sim.ctor").seconds;
    layers["workload.engine_mips"] = mips(g_rec.total("workload.engine"));
    layers["sim.warmup_mips"] = mips(g_rec.total("sim.runWarmup"));
    layers["sim.measure_mips"] = mips(g_rec.total("sim.finishRun"));
    layers["sim.ff_mips"] = mips(g_rec.total("sim.fastForward"));
    {
        Total win = g_rec.total("sim.advanceDetailed");
        const Total m = g_rec.total("sim.measureWindow");
        win.seconds += m.seconds;
        win.work += m.work;
        layers["sim.window_mips"] = mips(win);
    }
    layers["multicore.mips"] = mips(g_rec.total("multicore.run"));
    const Total capture = g_rec.total("ckpt.capture");
    layers["ckpt.capture_ms"] = capture.msPerCall();
    layers["ckpt.restore_ms"] = g_rec.total("ckpt.restore").msPerCall();
    layers["ckpt.encode_ms"] = g_rec.total("ckpt.encode").msPerCall();
    layers["ckpt.decode_ms"] = g_rec.total("ckpt.decode").msPerCall();
    layers["ckpt.blob_kb"] =
        capture.calls ? capture.work / capture.calls / 1024.0 : 0.0;
    layers["executor.busy_frac"] =
        replay_s > 0 ? g_rec.total("bench.job").seconds /
                           (replay_s * std::min<double>(args.jobs, n))
                     : 0.0;
    if (args.trace) {
        const std::vector<Span> spans = g_rec.spans();
        for (const auto &[k, v] : selfTimes(spans))
            layers[k] = v;
        if (!args.out.empty()) {
            writeSpans(args.out + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-pid" +
                           std::to_string(getpid()) + ".json",
                       spans);
        }
    }

    const std::vector<std::string> msgs = failures.messages();
    std::string fail_json = "[";
    for (std::size_t i = 0; i < msgs.size(); ++i)
        fail_json += (i ? ", " : "") + jsonString(msgs[i]);
    fail_json += "]";

    // A simulation fails when it threw or failed any check; a failure
    // not tied to one simulation fails them all.
    std::size_t failed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string who = simLabel(w.sims[i]) + ":";
        for (const std::string &m : msgs) {
            if (m.rfind(who, 0) == 0 || m.rfind("entry point", 0) == 0) {
                ++failed;
                break;
            }
        }
    }
    std::printf("{\"workload\": %s, \"seed\": %llu, \"jobs\": %u, "
                "\"trace\": %d, \"attempted\": %zu, \"failed\": %zu, "
                "\"digest\": %s, \"host\": %s, \"sim\": %s, "
                "\"layers\": %s, \"failures\": %s}\n",
                jsonString(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed), args.jobs,
                args.trace ? 1 : 0, n, failed,
                jsonString(digest.hex()).c_str(), jsonObject(host).c_str(),
                jsonObject(simulatedMetrics(w, results)).c_str(),
                jsonObject(layers).c_str(), fail_json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runPass(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hpbench: %s\n", e.what());
        return 2;
    }
}
