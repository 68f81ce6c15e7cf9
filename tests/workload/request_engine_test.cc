#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <unordered_map>

#include "util/serialize.hh"
#include "workload/request_engine.hh"

namespace hp
{
namespace
{

struct EngineFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        profile = &appProfile("caddy");
        app = ProgramBuilder::cached(*profile);
        engine = std::make_unique<RequestEngine>(app, *profile);
    }

    const AppProfile *profile = nullptr;
    std::shared_ptr<const BuiltApp> app;
    std::unique_ptr<RequestEngine> engine;
};

TEST_F(EngineFixture, RestoreRejectsFramesOutsideTheImage)
{
    // The stream holds the RNG (four words), the frame count, then
    // each frame from the bottom: func, opIdx, intraRun (four bytes
    // each), its return address and its loops. next() indexes the
    // image with them, so a restore must reject a function past the
    // image, a stub, an op past the body and a slot outside the op,
    // with a reason.
    DynInst inst;
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(engine->next(inst));
    ASSERT_FALSE(engine->idle());
    StateWriter writer;
    engine->serializeState(writer);
    const std::vector<std::uint8_t> good = writer.take();
    constexpr std::size_t kFunc = 4 * 8 + 8;
    constexpr std::size_t kOpIdx = kFunc + 4;
    constexpr std::size_t kIntraRun = kOpIdx + 4;
    std::uint32_t bottom = 0;
    std::memcpy(&bottom, &good[kFunc], sizeof(bottom));
    ASSERT_EQ(bottom, app->requestDriver);

    const Program &program = app->program;
    std::uint32_t stub = 0;
    while (stub < program.numFunctions() && !program.func(stub).stub)
        ++stub;
    ASSERT_LT(stub, program.numFunctions());
    const std::uint32_t body = std::uint32_t(
        program.func(app->requestDriver).body.size());

    RequestEngine restored(app, *profile);
    {
        StateLoader loader(good.data(), good.size());
        restored.serializeState(loader);
        ASSERT_FALSE(loader.failed());
    }
    const std::pair<std::size_t, std::uint32_t> corruptions[] = {
        {kFunc, std::uint32_t(program.numFunctions())},
        {kFunc, stub},
        {kOpIdx, body},
        {kIntraRun, 1u << 30}};
    for (const auto &[at, value] : corruptions) {
        std::vector<std::uint8_t> bad = good;
        std::memcpy(&bad[at], &value, sizeof(value));
        StateLoader loader(bad.data(), bad.size());
        restored.serializeState(loader);
        EXPECT_TRUE(loader.failed()) << "value " << value << " at " << at;
        EXPECT_NE(loader.failReason(), nullptr)
            << "value " << value << " at " << at;
    }
    // A rejected restore leaves no frame to run: the engine starts a
    // new request.
    EXPECT_TRUE(restored.idle());
}

TEST_F(EngineFixture, StreamNeverEnds)
{
    DynInst inst;
    for (int i = 0; i < 100000; ++i)
        ASSERT_TRUE(engine->next(inst));
    EXPECT_EQ(engine->stats().instructions, 100000u);
}

TEST_F(EngineFixture, ControlFlowIsWellFormed)
{
    // Calls and returns must nest; the next pc after any instruction
    // must be either sequential or the instruction's target.
    DynInst inst, prev;
    ASSERT_TRUE(engine->next(prev));
    std::vector<Addr> shadow_stack;
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        // Check continuity from prev.
        Addr expected = prev.nextFetchPc();
        // The final return of a request jumps to the next request's
        // driver entry; the engine patches its target, so continuity
        // still holds.
        ASSERT_EQ(inst.pc, expected)
            << "discontinuity at instruction " << i;
        if (isCall(prev.kind) && prev.taken)
            shadow_stack.push_back(prev.nextPc());
        if (prev.kind == InstKind::Return && !shadow_stack.empty()) {
            // Return target must match the shadow stack (except the
            // request-final return, which targets the driver).
            if (prev.target != app->program
                                   .func(app->requestDriver).addr) {
                EXPECT_EQ(prev.target, shadow_stack.back());
            }
            shadow_stack.pop_back();
        }
        prev = inst;
    }
}

TEST_F(EngineFixture, DeterministicStreams)
{
    RequestEngine a(app, *profile), b(app, *profile);
    DynInst ia, ib;
    for (int i = 0; i < 50000; ++i) {
        ASSERT_TRUE(a.next(ia));
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.taken, ib.taken);
        ASSERT_EQ(static_cast<int>(ia.kind), static_cast<int>(ib.kind));
    }
}

TEST_F(EngineFixture, MarkersDelimitRequestsAndStages)
{
    DynInst inst;
    unsigned requests = 0, stages = 0;
    for (int i = 0; i < 500000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        if (inst.marker == StreamMarker::RequestBegin)
            ++requests;
        else if (inst.marker == StreamMarker::StageBegin) {
            ++stages;
            EXPECT_LT(inst.markerArg, profile->numStages);
        }
    }
    EXPECT_GT(requests, 1u);
    // Each request visits every stage dispatcher once.
    EXPECT_NEAR(double(stages) / requests, profile->numStages,
                double(profile->numStages));
}

TEST_F(EngineFixture, TaggedInstructionsAreCallsOrReturns)
{
    DynInst inst;
    unsigned tagged = 0;
    for (int i = 0; i < 500000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        if (inst.tagged) {
            ++tagged;
            EXPECT_TRUE(isCall(inst.kind) ||
                        inst.kind == InstKind::Return);
            EXPECT_TRUE(app->image.tags.isTagged(inst.pc));
        }
    }
    EXPECT_GT(tagged, 10u);
}

TEST_F(EngineFixture, PcsStayInsideTheirFunctions)
{
    DynInst inst;
    for (int i = 0; i < 100000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        const Function &fn = app->program.func(inst.func);
        ASSERT_GE(inst.pc, fn.addr);
        ASSERT_LT(inst.pc, fn.addr + fn.sizeBytes());
    }
}

TEST_F(EngineFixture, DifferentSeedsProduceDifferentTypeMixes)
{
    AppProfile other = *profile;
    other.requestSeed = profile->requestSeed + 999;
    RequestEngine a(app, *profile), b(app, other);
    DynInst inst;
    std::vector<unsigned> types_a, types_b;
    while (types_a.size() < 10) {
        a.next(inst);
        if (inst.marker == StreamMarker::RequestBegin)
            types_a.push_back(inst.markerArg);
    }
    while (types_b.size() < 10) {
        b.next(inst);
        if (inst.marker == StreamMarker::RequestBegin)
            types_b.push_back(inst.markerArg);
    }
    EXPECT_NE(types_a, types_b);
}

TEST_F(EngineFixture, StableFootprintPerRoutine)
{
    // The same (stage, routine) under the same request type must touch
    // nearly the same blocks across executions — the property Bundles
    // exploit. Collect footprints of stage-1 executions by type.
    DynInst inst;
    // Footprints keyed by (stage, request type).
    std::unordered_map<unsigned, std::vector<std::set<Addr>>> by_type;
    std::set<Addr> current;
    int current_stage = -1;
    unsigned current_type = 0;
    auto close = [&]() {
        if (current_stage >= 0 && current.size() > 4) {
            by_type[unsigned(current_stage) * 1000 + current_type]
                .push_back(current);
        }
        current.clear();
    };
    for (int i = 0; i < 5000000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        if (inst.marker == StreamMarker::RequestBegin ||
            inst.marker == StreamMarker::StageBegin) {
            close();
            current_stage =
                inst.marker == StreamMarker::StageBegin
                    ? inst.markerArg : -1;
            // A RequestBegin marker carries the request's type.
            if (inst.marker == StreamMarker::RequestBegin)
                current_type = inst.markerArg;
        }
        if (current_stage >= 0)
            current.insert(blockAlign(inst.pc));
    }
    close();

    unsigned compared = 0;
    double jaccard_sum = 0.0;
    for (const auto &[type, footprints] : by_type) {
        for (std::size_t i = 1; i < footprints.size(); ++i) {
            const auto &a = footprints[i - 1];
            const auto &b = footprints[i];
            std::size_t inter = 0;
            for (Addr blk : b)
                inter += a.count(blk);
            std::size_t uni = a.size() + b.size() - inter;
            if (uni == 0)
                continue;
            jaccard_sum += double(inter) / double(uni);
            ++compared;
        }
    }
    ASSERT_GT(compared, 3u);
    EXPECT_GT(jaccard_sum / compared, 0.75);
}

} // namespace
} // namespace hp
