/**
 * @file
 * The request engine: interprets a built application's function bodies
 * to produce the dynamic instruction stream the simulator consumes.
 *
 * Requests draw a type from a Zipfian mix; each request walks the
 * request driver through every stage dispatcher, which diverges into
 * the routine selected by the request type. Branch directions and
 * conditional-call decisions are *stable per (site, request type)* with
 * a small per-evaluation jitter — giving each functionality the stable
 * instruction footprint with bounded variation that the paper observes
 * (Jaccard > 0.8 between consecutive executions of a Bundle).
 */

#ifndef HP_WORKLOAD_REQUEST_ENGINE_HH
#define HP_WORKLOAD_REQUEST_ENGINE_HH

#include <memory>
#include <vector>

#include "isa/inst.hh"
#include "stats/registry.hh"
#include "util/flat_map.hh"
#include "util/rng.hh"
#include "workload/program_builder.hh"

namespace hp
{

/** Statistics the engine can report about the emitted stream. */
struct EngineStats
{
    std::uint64_t instructions = 0;
    std::uint64_t requests = 0;
    std::uint64_t calls = 0;
    std::uint64_t returns = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t taggedInsts = 0;
};

/** Interprets a BuiltApp as an infinite instruction stream. */
class RequestEngine : public InstStream
{
  public:
    /**
     * @param app     The built (linked + tagged) application.
     * @param profile Workload profile (request mix and jitter; may be a
     *                different workload than the one that built the
     *                binary, e.g. tidb-tpcc vs tidb-sysbench).
     */
    RequestEngine(std::shared_ptr<const BuiltApp> app,
                  const AppProfile &profile);

    /** Emits the next run (see InstStream::next): up to @p max slots
     *  of the current Run op, else one instruction. The stream never
     *  ends. */
    std::uint64_t next(DynInst &first, std::uint64_t max = 1) override;

    const EngineStats &stats() const { return stats_; }

    /** Registers the emitted-stream counters under @p prefix. */
    void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        const EngineStats &s = stats_;
        reg.add(prefix + ".instructions",
                [&s] { return s.instructions; });
        reg.add(prefix + ".requests", [&s] { return s.requests; });
        reg.add(prefix + ".calls", [&s] { return s.calls; });
        reg.add(prefix + ".returns", [&s] { return s.returns; });
        reg.add(prefix + ".cond_branches",
                [&s] { return s.condBranches; });
        reg.add(prefix + ".tagged_insts",
                [&s] { return s.taggedInsts; });
    }

    /** True between requests: the last emitted instruction was the
     *  final return and the next call to next() starts a request. */
    bool idle() const { return frames_.empty(); }

    /** The pc of the next instruction next() emits. */
    Addr resumePc() const;

    /** Serializes/restores RNG and call frames. */
    template <class Ar> void serializeState(Ar &ar);

  private:
    struct LoopState
    {
        std::uint32_t opIdx = 0;
        std::uint16_t remaining = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(opIdx);
            ar.value(remaining);
        }
    };

    struct Frame
    {
        FuncId func = kNoFunc;
        std::uint32_t opIdx = 0;
        std::uint32_t intraRun = 0;
        Addr returnAddr = 0;
        /** Active loops in this frame (rarely more than one). */
        std::vector<LoopState> loops;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(func);
            ar.value(opIdx);
            ar.value(intraRun);
            ar.value(returnAddr);
            io(ar, loops);
        }
    };

    void startRequest();
    void pushFrame(FuncId func, Addr return_addr);

    /** Stable per-(site, type) decision with per-evaluation jitter. */
    bool decide(Addr pc, unsigned bias, unsigned jitter);

    /** Jumps @p frame's cursor to the taken target of @p op, the
     *  branch or loop at its cursor, whose slot is @p slot. */
    void seek(Frame &frame, const BodyOp &op, std::uint32_t slot);

    /** The pc @p frame's function continues at: its op's next slot. */
    Addr framePc(const Frame &frame) const;

    /** Why the restored frames cannot run on this image (an index
     *  next() would read out of range, a stub, or a return that does
     *  not land where its caller resumes), or nullptr. */
    const char *checkFrames() const;

    std::shared_ptr<const BuiltApp> app_;
    const AppProfile &profile_;
    Rng rng_;
    ZipfSampler typeSampler_;

    std::vector<Frame> frames_;
    unsigned requestType_ = 0;

    StreamMarker pendingMarker_ = StreamMarker::None;
    std::uint16_t pendingMarkerArg_ = 0;

    /** Dispatcher func -> stage index (for StageBegin markers). */
    FlatMap<FuncId, std::uint16_t> dispatcherStage_;

    EngineStats stats_;

    static constexpr std::size_t kMaxDepth = 96;
};

} // namespace hp

#endif // HP_WORKLOAD_REQUEST_ENGINE_HH
