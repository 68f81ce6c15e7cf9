/**
 * @file
 * Shared helpers for unit tests: tiny hand-built programs with known
 * call-graph shapes, so analyses can be checked against exact values,
 * and a component's checkpoint bytes and restore verdict.
 */

#ifndef HP_TESTS_TEST_HELPERS_HH
#define HP_TESTS_TEST_HELPERS_HH

#include <string>
#include <vector>

#include "binary/program.hh"
#include "util/serialize.hh"

namespace hp::test
{

/** Adds a leaf function: a run of @p insts-2 plus Ret. */
inline FuncId
addLeaf(Program &program, const std::string &name, std::uint32_t insts,
        std::uint16_t module = 0)
{
    FuncId id = program.addFunction(name, module);
    Function &fn = program.func(id);
    if (insts > 1) {
        BodyOp run;
        run.kind = OpKind::Run;
        run.offset = 0;
        run.length = insts - 1;
        fn.body.push_back(run);
    }
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = insts > 1 ? insts - 1 : 0;
    fn.body.push_back(ret);
    return id;
}

/**
 * Adds a caller: alternating short runs and unconditional call sites
 * to @p callees (each with execProb 100), ending in Ret.
 */
inline FuncId
addCaller(Program &program, const std::string &name,
          const std::vector<FuncId> &callees, std::uint16_t module = 0,
          std::uint32_t run_len = 4)
{
    FuncId id = program.addFunction(name, module);
    Function &fn = program.func(id);
    std::uint32_t cursor = 0;
    for (FuncId callee : callees) {
        BodyOp run;
        run.kind = OpKind::Run;
        run.offset = cursor;
        run.length = run_len;
        fn.body.push_back(run);
        cursor += run_len;

        BodyOp call;
        call.kind = OpKind::CallSite;
        call.offset = cursor;
        call.length = 1;
        call.targetIdx = static_cast<std::uint32_t>(fn.callees.size());
        call.execProb = 100;
        fn.callees.push_back(callee);
        fn.body.push_back(call);
        ++cursor;
    }
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = cursor;
    fn.body.push_back(ret);
    return id;
}

/** The bytes @p state's serializeState writes. */
template <typename T>
std::vector<std::uint8_t>
saved(T &state)
{
    StateWriter writer;
    state.serializeState(writer);
    return writer.take();
}

/** Why @p bytes do not restore into @p state, or "" when they do. */
template <typename T>
std::string
restoreError(T &state, const std::vector<std::uint8_t> &bytes)
{
    StateLoader loader(bytes.data(), bytes.size());
    state.serializeState(loader);
    if (!loader.failed())
        return "";
    return loader.failReason() ? loader.failReason() : "truncated";
}

} // namespace hp::test

#endif // HP_TESTS_TEST_HELPERS_HH
