/**
 * @file
 * Pipeline tests for the observability layer: the EventSink ring, the
 * Perfetto exporter's track mapping and JSON, the interval sampler,
 * the time-series CSV writer, the time-series rows of a real run
 * telescoping to the live counters, and — the central property — that
 * the missAttribution.* cause classes exactly partition
 * l1i.demand_misses across randomized simulator configurations, with
 * a golden breakdown pinned for one seeded workload.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_sink.hh"
#include "obs/miss_attribution.hh"
#include "obs/obs.hh"
#include "obs/perfetto_export.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "util/rng.hh"

namespace
{

using namespace hp;

// ---- EventSink ring ----

TEST(EventSink, DropsOldestWhenFull)
{
    EventSink sink(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.emit(EventKind::PrefetchIssued, Cycle(i), Addr(0x40 * i));
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.emitted(), 6u);
    EXPECT_EQ(sink.dropped(), 2u);

    std::vector<TraceEvent> events = sink.drain();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].cycle, Cycle(i + 2)); // Oldest two gone.
    EXPECT_EQ(sink.size(), 0u);
}

TEST(EventSink, SpanDuration)
{
    EventSink sink(8);
    sink.emitSpan(EventKind::FetchStall, 100, 130, 0x40);
    sink.emitSpan(EventKind::FetchStall, 130, 130); // Empty span.
    std::vector<TraceEvent> events = sink.drain();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].dur, 30u);
    EXPECT_EQ(events[1].dur, 0u);
}

// ---- Perfetto export ----

TEST(PerfettoExport, EveryKindHasNameAndTrack)
{
    for (unsigned k = 0; k < kNumEventKinds; ++k) {
        EventKind kind = static_cast<EventKind>(k);
        EXPECT_STRNE(eventKindName(kind), "?");
        for (std::uint8_t origin : {0, 1, 2}) {
            unsigned track = obs::eventTrack(kind, origin);
            EXPECT_GE(track, 1u);
            EXPECT_LE(track, obs::numTracks());
            EXPECT_STRNE(obs::trackName(track), "?");
        }
    }
    // Origin steers the prefetch-lifecycle kinds between fdip and ext.
    EXPECT_STREQ(
        obs::trackName(obs::eventTrack(EventKind::PrefetchIssued, 1)),
        "fdip");
    EXPECT_STREQ(
        obs::trackName(obs::eventTrack(EventKind::PrefetchIssued, 2)),
        "ext");
}

TEST(PerfettoExport, JsonStructure)
{
    obs::RunCapture run;
    run.label = "caddy/Hierarchical";
    TraceEvent span;
    span.kind = EventKind::DemandMissMem;
    span.cycle = 1000;
    span.dur = 160;
    span.addr = 0x7f00;
    run.events.push_back(span);
    TraceEvent instant;
    instant.kind = EventKind::PrefetchIssued;
    instant.origin = 2;
    instant.cycle = 1200;
    run.events.push_back(instant);
    run.eventsDropped = 5;

    const std::string doc = obs::perfettoJson({run});
    EXPECT_NE(doc.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("caddy/Hierarchical #0"), std::string::npos);
    EXPECT_NE(doc.find("dropped 5 oldest events"), std::string::npos);
    // Span event with its duration on the l1i track.
    EXPECT_NE(doc.find("\"name\":\"demand miss (mem)\",\"ph\":\"X\","
                       "\"ts\":1000,\"dur\":160"),
              std::string::npos);
    EXPECT_NE(doc.find("\"addr\":\"0x7f00\""), std::string::npos);
    // Instant event on the ext track.
    EXPECT_NE(doc.find("\"name\":\"prefetch issued\",\"ph\":\"i\""),
              std::string::npos);
    // Thread names only for used tracks: l1i and ext, not replay.
    EXPECT_NE(doc.find("{\"name\":\"l1i\"}"), std::string::npos);
    EXPECT_NE(doc.find("{\"name\":\"ext\"}"), std::string::npos);
    EXPECT_EQ(doc.find("{\"name\":\"replay\"}"), std::string::npos);
}

TEST(PerfettoExport, RequestKindsRenderOnTheirTracks)
{
    obs::RunCapture run;
    run.label = "scenario";

    TraceEvent request;
    request.kind = EventKind::RequestSpan;
    request.cycle = 500;
    request.dur = 200;
    request.arg = 7;    // request id
    request.origin = 1; // chain index
    run.events.push_back(request);

    TraceEvent sw;
    sw.kind = EventKind::ContextSwitch;
    sw.cycle = 650;
    sw.origin = 2; // incoming tenant
    run.events.push_back(sw);

    TraceEvent hop;
    hop.kind = EventKind::ChainHandoff;
    hop.cycle = 700;
    hop.dur = 1;           // hop counter
    hop.arg = 7;           // request id
    hop.origin = (0 << 4) | 1; // svc0 -> svc1
    run.events.push_back(hop);

    const std::string doc = obs::perfettoJson({run});

    // The request span is an "X" on the requests track.
    EXPECT_NE(doc.find("\"name\":\"request\",\"ph\":\"X\","
                       "\"ts\":500,\"dur\":200"),
              std::string::npos);
    EXPECT_NE(doc.find("{\"name\":\"requests\"}"), std::string::npos);

    // The context switch is an instant on the incoming tenant track.
    EXPECT_NE(doc.find("\"name\":\"context switch\",\"ph\":\"i\""),
              std::string::npos);
    EXPECT_NE(doc.find("{\"name\":\"tenant2\"}"), std::string::npos);

    // The hand-off renders as one s/f flow pair spanning the service
    // tracks, one cycle apart, under a shared id (arg*256 + hop).
    EXPECT_NE(doc.find("\"ph\":\"s\",\"id\":1793,\"ts\":699"),
              std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":1793,"
                       "\"ts\":700"),
              std::string::npos);
    // Both endpoint tracks get their thread_name metadata.
    EXPECT_NE(doc.find("{\"name\":\"svc0\"}"), std::string::npos);
    EXPECT_NE(doc.find("{\"name\":\"svc1\"}"), std::string::npos);
}

TEST(PerfettoExport, EscapesLabel)
{
    obs::RunCapture run;
    run.label = "we\"ird\\label";
    const std::string doc = obs::perfettoJson({run});
    EXPECT_NE(doc.find("we\\\"ird\\\\label"), std::string::npos);
    EXPECT_EQ(doc.find("we\"ird"), std::string::npos);
}

// ---- Interval sampler ----

class SamplerTest : public ::testing::Test
{
  protected:
    SamplerTest()
    {
        registry_.add("sim.cycles", [this] { return cycles_; });
        registry_.add("l1i.demand_accesses",
                      [this] { return accesses_; });
        registry_.add("l1i.demand_misses", [this] { return misses_; });
        registry_.add("dram.demand_bytes", [this] { return demand_; });
        registry_.add("dram.fdip_bytes", [this] { return fdip_; });
        registry_.add("dram.ext_bytes", [this] { return ext_; });
        registry_.add("dram.metadata_read_bytes",
                      [this] { return mdRead_; });
        registry_.add("dram.metadata_write_bytes",
                      [this] { return mdWrite_; });
    }

    StatsRegistry registry_;
    std::uint64_t cycles_ = 0, accesses_ = 0, misses_ = 0;
    std::uint64_t demand_ = 0, fdip_ = 0, ext_ = 0;
    std::uint64_t mdRead_ = 0, mdWrite_ = 0;
};

TEST_F(SamplerTest, SamplesAtIntervalBoundaries)
{
    IntervalSampler sampler(registry_, 100);

    cycles_ = 50;
    sampler.tick(99, false);
    EXPECT_TRUE(sampler.rows().empty());

    cycles_ = 200;
    accesses_ = 80;
    misses_ = 8;
    demand_ = 512;
    fdip_ = 128;
    mdRead_ = 64;
    sampler.tick(100, false);
    ASSERT_EQ(sampler.rows().size(), 1u);
    const SampleRow &row = sampler.rows()[0];
    EXPECT_FALSE(row.measuring);
    EXPECT_EQ(row.insts, 100u);
    EXPECT_EQ(row.cycles, 200u);
    EXPECT_EQ(row.dInsts, 100u);
    EXPECT_EQ(row.dCycles, 200u);
    EXPECT_EQ(row.dL1iAccesses, 80u);
    EXPECT_EQ(row.dL1iMisses, 8u);
    EXPECT_EQ(row.dDramBytes, 640u); // demand + fdip + ext
    EXPECT_EQ(row.dMetadataBytes, 64u);

    // Deltas are relative to the previous sample.
    cycles_ = 300;
    ext_ = 256;
    mdWrite_ = 32;
    sampler.tick(200, true);
    ASSERT_EQ(sampler.rows().size(), 2u);
    EXPECT_TRUE(sampler.rows()[1].measuring);
    EXPECT_EQ(sampler.rows()[1].dCycles, 100u);
    EXPECT_EQ(sampler.rows()[1].dDramBytes, 256u);
    EXPECT_EQ(sampler.rows()[1].dMetadataBytes, 32u);
}

TEST_F(SamplerTest, SkipsJumpedBoundariesAndFinalSample)
{
    IntervalSampler sampler(registry_, 100);
    cycles_ = 10;
    sampler.tick(350, false); // Jumped over 100, 200, 300: one sample.
    ASSERT_EQ(sampler.rows().size(), 1u);
    sampler.tick(399, false); // Next boundary is 400.
    EXPECT_EQ(sampler.rows().size(), 1u);

    cycles_ = 20;
    sampler.finalSample(420, true);
    ASSERT_EQ(sampler.rows().size(), 2u);
    EXPECT_EQ(sampler.rows()[1].dInsts, 70u);

    sampler.finalSample(420, true); // No progress: no duplicate row.
    EXPECT_EQ(sampler.rows().size(), 2u);
}

// ---- Environment ----

TEST(ObsConfigDeathTest, MalformedNumericOptionsAreFatal)
{
    // HP_TRACE_CAP=-1 once wrapped to SIZE_MAX, and the event ring's
    // capacity doubling then looped forever; each numeric option now
    // rejects a sign, an overflow and its maximum by name.
    for (const char *name :
         {"HP_TRACE_CAP", "HP_SPAN_TOPK", "HP_TS_INTERVAL"}) {
        for (const char *bad : {"-1", "+5", " 5", "99999999999999999999"}) {
            ::setenv(name, bad, 1);
            EXPECT_DEATH(obs::configFromEnv(), name) << bad;
        }
        ::unsetenv(name);
    }
    ::setenv("HP_TRACE_CAP", "67108865", 1); // 2^26 + 1
    EXPECT_DEATH(obs::configFromEnv(), "maximum 67108864");
    ::setenv("HP_TRACE_CAP", "1000", 1);
    EXPECT_EQ(obs::configFromEnv().traceCapacity, 1000u);
    ::unsetenv("HP_TRACE_CAP");
}

// ---- Time-series CSV writer ----

TEST(TimeseriesCsv, RowFormat)
{
    obs::RunCapture run;
    run.label = "caddy/FDIP";
    run.tsInterval = 100;
    SampleRow row;
    row.measuring = true;
    row.insts = 200;
    row.cycles = 500;
    row.dInsts = 100;
    row.dCycles = 250;
    row.dL1iAccesses = 40;
    row.dL1iMisses = 4;
    row.dDramBytes = 256;
    row.dMetadataBytes = 64;
    run.samples.push_back(row);

    const std::string path = "obs_pipeline_test.timeseries.csv";
    obs::writeTimeseriesCsv(path, {run});
    std::ifstream in(path);
    std::string header, line;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header,
              "run,label,interval_insts,phase,insts,cycles,d_insts,"
              "d_cycles,d_l1i_accesses,d_l1i_misses,d_dram_bytes,"
              "d_metadata_bytes,ipc,l1i_mpki");
    ASSERT_TRUE(std::getline(in, line));
    // ipc = 100/250 = 0.4; mpki = 1000*4/100 = 40.
    EXPECT_EQ(line, "0,caddy/FDIP,100,measure,200,500,100,250,40,4,"
                    "256,64,0.4000,40.0000");
    std::remove(path.c_str());
}

// ---- The partition property, end to end ----

class ObsSimTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_ = obs::config();
        obs::config() = obs::ObsConfig{};
        obs::config().attribution = true;
    }

    void TearDown() override { obs::config() = saved_; }

    obs::ObsConfig saved_;
};

std::uint64_t
attributionSum(const StatsSnapshot &stats)
{
    std::uint64_t sum = 0;
    for (unsigned c = 0; c < kNumMissCauses; ++c)
        sum += stats.value(std::string("missAttribution.") +
                           missCauseName(static_cast<MissCause>(c)));
    return sum;
}

TEST_F(ObsSimTest, CauseClassesPartitionMissesAcrossRandomConfigs)
{
    // Deterministically randomized configs: small/stressed caches and
    // MSHR files push misses into every cause class the model can
    // produce; the partition must hold for all of them.
    Rng rng(0xc0ffee);
    const std::vector<std::string> workloads = {"caddy", "gorm",
                                                "tidb-tpcc"};
    const std::vector<PrefetcherKind> kinds = {
        PrefetcherKind::None, PrefetcherKind::EFetch,
        PrefetcherKind::Mana, PrefetcherKind::Eip,
        PrefetcherKind::Hierarchical,
    };

    for (int i = 0; i < 8; ++i) {
        SimConfig config;
        config.workload = workloads[rng.next() % workloads.size()];
        config.prefetcher = kinds[rng.next() % kinds.size()];
        config.warmupInsts = 20'000 + 10'000 * (rng.next() % 3);
        config.measureInsts = 60'000 + 20'000 * (rng.next() % 3);
        config.mem.l1iBytes = 1024u << (rng.next() % 3); // 1-4 KiB
        config.mem.l1iWays = 2 + 2 * (rng.next() % 2);
        config.mem.l1iMshrs = 4 + 4 * (rng.next() % 3);
        config.mem.mshrsReservedForDemand = 1 + rng.next() % 3;

        Simulator sim(config);
        SimMetrics metrics = sim.run();

        const std::uint64_t misses =
            metrics.stats.value("l1i.demand_misses");
        EXPECT_EQ(attributionSum(metrics.stats), misses)
            << "config " << i << ": " << config.workload << "/"
            << prefetcherName(config.prefetcher);
        EXPECT_EQ(metrics.stats.value("missAttribution.wrong_path"),
                  0u);
        EXPECT_GT(misses, 0u) << "config " << i
                              << " produced no misses; test is vacuous";
    }
}

/** The comma-separated fields of one CSV line. */
std::vector<std::string>
csvFields(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    std::string field;
    while (std::getline(in, field, ','))
        out.push_back(field);
    return out;
}

TEST_F(ObsSimTest, TimeseriesRowsSumToLiveCounters)
{
    // Counters never reset, so every row's deltas, warmup and
    // measurement alike, telescope to the live registry value at the
    // end of the run. A reset at the warmup boundary would wrap the
    // first measurement row around 2^64, which only the overflow
    // check sees: the wrapped sum still matches modulo 2^64.
    const std::string path = "obs_pipeline_test.rows.csv";
    obs::config().timeseriesPath = path;
    obs::config().intervalInsts = 50'000;
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Hierarchical}) {
        SimConfig config;
        config.workload = "caddy";
        config.warmupInsts = 150'000;
        config.measureInsts = 300'000;
        config.prefetcher = kind;

        obs::Collector::clear();
        Simulator sim(config);
        sim.run();
        obs::Collector::writeOutputs();

        std::ifstream in(path);
        std::string line;
        ASSERT_TRUE(std::getline(in, line));
        const std::vector<std::string> header = csvFields(line);
        std::map<std::string, std::uint64_t> sums = {
            {"d_l1i_accesses", 0}, {"d_l1i_misses", 0},
            {"d_dram_bytes", 0}};
        bool wrapped = false;
        unsigned rows = 0, measure_rows = 0;
        while (std::getline(in, line)) {
            const std::vector<std::string> fields = csvFields(line);
            ASSERT_EQ(fields.size(), header.size()) << line;
            ++rows;
            for (std::size_t i = 0; i < header.size(); ++i) {
                if (header[i] == "phase" && fields[i] == "measure")
                    ++measure_rows;
                auto it = sums.find(header[i]);
                if (it != sums.end()) {
                    wrapped |= __builtin_add_overflow(
                        it->second, std::stoull(fields[i]), &it->second);
                }
            }
        }
        EXPECT_GE(rows, 9u);
        EXPECT_GE(measure_rows, 6u);
        EXPECT_FALSE(wrapped) << prefetcherName(kind);

        const StatsRegistry &reg = sim.stats();
        EXPECT_EQ(sums["d_l1i_accesses"],
                  reg.value("l1i.demand_accesses"));
        EXPECT_EQ(sums["d_l1i_misses"], reg.value("l1i.demand_misses"));
        EXPECT_EQ(sums["d_dram_bytes"],
                  reg.value("dram.demand_bytes") +
                      reg.value("dram.fdip_bytes") +
                      reg.value("dram.ext_bytes"));
    }
    obs::Collector::clear();
    std::remove(path.c_str());
}

TEST_F(ObsSimTest, SampledRunCollectsRowsFromEveryWindow)
{
    // A sampled run measures every interval on one reused window
    // simulator. Each window must hand over its own rows, and no row
    // may span the fast-forward jump a restore makes.
    const std::string path = "obs_pipeline_test.windows.csv";
    const std::uint64_t kInterval = 5'000;
    obs::config().timeseriesPath = path;
    obs::config().intervalInsts = kInterval;
    SimConfig config;
    config.workload = "caddy";
    config.prefetcher = PrefetcherKind::Hierarchical;
    config.warmupInsts = 100'000;
    config.measureInsts = 400'000;
    config.sample = {4, 20'000, 10'000, 3};

    obs::Collector::clear();
    const SimMetrics m = runSampled(config);
    obs::Collector::writeOutputs();
    ASSERT_TRUE(m.sampling);
    ASSERT_EQ(m.sampling->intervals.size(), 4u);

    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    const std::vector<std::string> header = csvFields(line);
    auto column = [&header](const std::string &name) {
        return std::size_t(std::find(header.begin(), header.end(), name) -
                           header.begin());
    };
    const std::size_t run = column("run"), phase = column("phase"),
                      d_insts = column("d_insts");
    ASSERT_LT(d_insts, header.size());
    std::map<std::string, unsigned> measure_rows; // per capture
    while (std::getline(in, line)) {
        const std::vector<std::string> fields = csvFields(line);
        ASSERT_EQ(fields.size(), header.size()) << line;
        if (fields[phase] == "measure")
            ++measure_rows[fields[run]];
        // A row covers at most one interval plus a commit group.
        EXPECT_LE(std::stoull(fields[d_insts]), kInterval + 64) << line;
    }
    EXPECT_EQ(measure_rows.size(), m.sampling->intervals.size());
    for (const auto &[capture, rows] : measure_rows)
        EXPECT_GE(rows, 4u) << "capture " << capture;

    obs::Collector::clear();
    std::remove(path.c_str());
}

TEST_F(ObsSimTest, GoldenAttributionBreakdown)
{
    // One seeded workload's full cause breakdown, pinned: any change
    // to the attribution state machine or to what the simulator feeds
    // it must be a conscious golden update.
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 150'000;
    config.measureInsts = 300'000;
    config.prefetcher = PrefetcherKind::Hierarchical;

    Simulator sim(config);
    SimMetrics metrics = sim.run();

    std::ostringstream text;
    text << "caddy/Hierarchical 150k warmup + 300k measure\n";
    for (unsigned c = 0; c < kNumMissCauses; ++c) {
        const std::string name =
            missCauseName(static_cast<MissCause>(c));
        text << name << " "
             << metrics.stats.value("missAttribution." + name) << " "
             << metrics.stats.value("missAttribution." + name +
                                    "_latency_cycles")
             << "\n";
    }
    text << "total " << attributionSum(metrics.stats) << "\n";
    text << "l1i_demand_misses "
         << metrics.stats.value("l1i.demand_misses") << "\n";

    const std::string golden_path =
        std::string(HP_GOLDEN_DIR) + "/attribution_caddy.txt";
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path
                    << "; expected contents:\n"
                    << text.str();
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), text.str())
        << "attribution breakdown drifted from " << golden_path;
}

} // namespace
