/**
 * @file
 * Dynamic instruction records produced by the workload engines and
 * consumed by the timing simulator.
 *
 * The ISA model is deliberately minimal: fixed 4-byte instructions and
 * the six control-flow classes the front end cares about. Call/return
 * instructions carry the Bundle entry tag bit that the paper encodes in
 * reserved bits of the call/ret formats (Section 5.2).
 */

#ifndef HP_ISA_INST_HH
#define HP_ISA_INST_HH

#include <cstdint>

#include "util/types.hh"

namespace hp
{

/** Control-flow class of an instruction. */
enum class InstKind : std::uint8_t
{
    Plain,        ///< Non-control-flow instruction.
    CondBranch,   ///< Conditional direct branch.
    Jump,         ///< Unconditional direct branch.
    IndirectJump, ///< Unconditional indirect branch.
    Call,         ///< Direct call.
    IndirectCall, ///< Indirect call.
    Return,       ///< Function return.
};

/** Marker events interleaved with the instruction stream by workloads. */
enum class StreamMarker : std::uint8_t
{
    None,         ///< Plain instruction.
    RequestBegin, ///< First instruction of a request.
    StageBegin,   ///< First instruction of a pipeline stage.
    RequestEnd,   ///< Final instruction of a request (scenario runs).
};

/** Returns true for instruction kinds that redirect fetch when taken. */
constexpr bool
isControl(InstKind kind)
{
    return kind != InstKind::Plain;
}

/** Returns true for direct or indirect calls. */
constexpr bool
isCall(InstKind kind)
{
    return kind == InstKind::Call || kind == InstKind::IndirectCall;
}

/**
 * One retired (architectural-path) instruction.
 *
 * The engine emits the *actual* execution path; predictors inside the
 * simulator decide how much of that path the front end would have been
 * able to anticipate.
 */
struct DynInst
{
    /** Instruction address. */
    Addr pc = 0;

    /** Actual target when this is a taken control transfer, else 0. */
    Addr target = 0;

    /** Static function containing the instruction (probe/debug aid). */
    std::uint32_t func = 0;

    /** Auxiliary marker payload: the stage index for StageBegin; for
     *  RequestBegin the request type (the chain index in scenario
     *  streams). */
    std::uint16_t markerArg = 0;

    InstKind kind = InstKind::Plain;

    /** Actual direction for CondBranch; true for other transfers. */
    bool taken = false;

    /** Bundle entry tag (valid on Call/IndirectCall/Return only). */
    bool tagged = false;

    StreamMarker marker = StreamMarker::None;

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        ar.value(pc);
        ar.value(target);
        ar.value(func);
        ar.value(markerArg);
        ar.value(kind);
        ar.value(taken);
        ar.value(tagged);
        ar.value(marker);
    }

    bool operator==(const DynInst &) const = default;

    /** Address of the next sequential instruction. */
    Addr nextPc() const { return pc + kInstBytes; }

    /** Address control flow actually continues at after this inst. */
    Addr
    nextFetchPc() const
    {
        return (isControl(kind) && taken) ? target : nextPc();
    }
};

/**
 * Pull interface for instruction streams. Implemented by the request
 * engine and by the scenario engine, so the simulator is agnostic to
 * the source of instructions.
 */
class InstStream
{
  public:
    virtual ~InstStream() = default;

    /**
     * Produces the next instructions as a straight-line run: @p first,
     * then the plain instructions that follow it at consecutive
     * addresses. Every instruction after the first is Plain, carries
     * no marker, and has the first's func; only a plain @p first
     * starts a run longer than one. The stream's counters advance by
     * the returned count, exactly as if each instruction had been
     * pulled alone, so pulling with @p max = 1 and with any larger
     * @p max yields the same instruction sequence and the same state
     * at every cut. The stream is contiguous: each instruction
     * starts at its predecessor's nextFetchPc().
     * @param max Upper bound on the run length (at least 1).
     * @return the run length, in [1, max]; 0 when the stream is
     *         exhausted.
     */
    virtual std::uint64_t next(DynInst &first, std::uint64_t max = 1) = 0;
};

} // namespace hp

#endif // HP_ISA_INST_HH
