/**
 * @file
 * Static program model: functions, their control-flow micro-structure,
 * and code layout.
 *
 * This stands in for the real ELF binaries the paper links and loads.
 * Each function body is a compact list of BodyOps (instruction runs,
 * conditional skips, loops, call sites, return); the workload engine
 * interprets these ops to produce the dynamic instruction stream, and
 * the Bundle analysis consumes the derived static call graph.
 */

#ifndef HP_BINARY_PROGRAM_HH
#define HP_BINARY_PROGRAM_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/types.hh"

namespace hp
{

/** Identifies a function within a Program. */
using FuncId = std::uint32_t;

/** Sentinel for "no function". */
constexpr FuncId kNoFunc = 0xffffffff;

/** Kinds of body operations making up a function. */
enum class OpKind : std::uint8_t
{
    Run,      ///< A run of plain instructions.
    Branch,   ///< Conditional forward branch skipping part of the body.
    Loop,     ///< Conditional backward branch forming a loop.
    CallSite, ///< Direct or indirect call.
    Ret,      ///< Function return (must be the last op).
};

/**
 * One element of a function body. Offsets are in instruction slots from
 * the function entry; Run occupies @c length slots, every other op
 * occupies exactly one slot. The fields are ordered by size, so an op
 * packs into 20 bytes without padding; @c length and @c targetIdx mean
 * what the op's kind says, and every reader switches on @c kind.
 */
struct BodyOp
{
    /** First instruction slot occupied by this op. */
    std::uint32_t offset = 0;

    /**
     * Run: number of plain instructions.
     * Branch: instructions skipped when taken.
     * Loop: instructions jumped back over when taken.
     * CallSite: number of candidate callees.
     */
    std::uint32_t length = 0;

    /**
     * Branch/Loop: index of the body op holding the taken target slot,
     * resolved when the body is built.
     * CallSite: index of the first candidate in Function::callees.
     */
    std::uint32_t targetIdx = 0;

    /** Loop: mean extra iterations beyond the first. */
    std::uint16_t meanIter = 0;

    /** Branch/Loop: probability (percent) that the branch is taken. */
    std::uint8_t biasTaken = 0;

    /**
     * Branch: percent chance per evaluation that the context-stable
     * direction is flipped (per-execution control-flow jitter).
     */
    std::uint8_t jitter = 0;

    /** CallSite: probability (percent) the call executes at all. */
    std::uint8_t execProb = 100;

    /** CallSite: jitter (percent) applied to the execute decision. */
    std::uint8_t execJitter = 0;

    OpKind kind = OpKind::Run;

    /** CallSite: true for indirect calls (target chosen at run time). */
    bool indirect = false;
};

// Images hold millions of ops; a new field must not grow the op.
static_assert(sizeof(BodyOp) == 20, "BodyOp must pack into 20 bytes");

/** A function: identity, layout, and body. */
class Function
{
  public:
    FuncId id = 0;

    std::string name;

    /** Module/library index; layout groups functions by module. */
    std::uint16_t module = 0;

    /**
     * True for a function no execution can enter. Its body keeps only
     * its CallSite ops and its Ret, at their slot offsets: all the
     * call graph, the Bundle analysis and the loader read. The other
     * slots still count in numInsts() and the layout, but hold no op.
     */
    bool stub = false;

    /** Assigned base address (set by Program::layout). */
    Addr addr = 0;

    std::vector<BodyOp> body;

    /**
     * The candidate callees of every call site, in body order: a
     * CallSite op names callees[targetIdx, targetIdx + length), one
     * entry for a direct call.
     */
    std::vector<FuncId> callees;

    /** The candidate callees of CallSite @p op of this function. */
    std::span<const FuncId>
    candidates(const BodyOp &op) const
    {
        return {callees.data() + op.targetIdx, op.length};
    }

    /** Number of instruction slots occupied by the body. */
    std::uint32_t numInsts() const;

    /** Code size in bytes (slots times instruction width). */
    std::uint64_t sizeBytes() const { return std::uint64_t(numInsts()) * kInstBytes; }

    /** Address of the instruction in slot @p slot. */
    Addr instAddr(std::uint32_t slot) const { return addr + Addr(slot) * kInstBytes; }
};

/**
 * A complete program image: all functions plus their layout. The
 * Program is immutable once finalized; the Bundle analysis, loader and
 * workload engine all reference it by const reference.
 */
class Program
{
  public:
    /** Adds a function and returns its id. Body may be filled later. */
    FuncId addFunction(std::string name, std::uint16_t module = 0);

    Function &func(FuncId id) { return funcs_[id]; }
    const Function &func(FuncId id) const { return funcs_[id]; }

    std::size_t numFunctions() const { return funcs_.size(); }

    const std::vector<Function> &functions() const { return funcs_; }

    /**
     * Assigns addresses to all functions, grouped by module, starting
     * at @p base, and freezes the image. Must be called exactly once,
     * after all bodies are final.
     */
    void layout(Addr base = 0x400000);

    bool isLaidOut() const { return laidOut_; }

    /** Total code bytes across all functions (valid after layout). */
    std::uint64_t totalCodeBytes() const { return totalCode_; }

    /** Finds the function containing @p addr, or kNoFunc. */
    FuncId funcAt(Addr addr) const;

    /**
     * Checks structural invariants of every function body (monotonic
     * offsets, spans inside the body, branch and loop targets that
     * name the op holding their target slot, candidate ranges inside
     * the callee list, valid callee ids, a non-empty body ending in
     * Ret). A stub holds only CallSite ops and a final Ret at strictly
     * increasing offsets, and no function but a stub names a stub
     * among its candidates. When @p entry is given, execution starts
     * there, and it must not be a stub: so execution never enters a
     * stub. Calls panic() on violation; intended for tests and
     * builders.
     */
    void validate(FuncId entry = kNoFunc) const;

  private:
    std::vector<Function> funcs_;
    /** Function ids sorted by address (built by layout). */
    std::vector<FuncId> byAddr_;
    std::uint64_t totalCode_ = 0;
    bool laidOut_ = false;
};

} // namespace hp

#endif // HP_BINARY_PROGRAM_HH
