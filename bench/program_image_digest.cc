/**
 * @file
 * Program-image pin: builds each distinct binary and prints one line
 * per binary with its function, reachable-function, instruction and
 * call-site counts and a 64-bit FNV-1a digest of what the image's
 * consumers read, diffed against a checked-in golden. The digest
 * covers
 *   - per function: name, module, address, instruction count and
 *     whether the request driver reaches it through call candidates;
 *   - per call site and return: kind, offset, execute probability,
 *     execute jitter, the indirect flag and the candidate callee ids,
 *     in order;
 *   - per op of a reachable function, also its extent (a Run's
 *     length, a Branch's or Loop's span), resolved target op
 *     (Branch/Loop), bias, jitter and mean iterations;
 *   - the tagged-instruction section and the Bundle entry set.
 * The call graph, the Bundle analysis and the loader read only call
 * sites, returns and instruction counts, and the request engine only
 * runs what the driver reaches, so the other ops of an unreachable
 * function are outside the digest. It hashes values, not the bytes
 * of the in-memory structures, so a change to how the image is stored
 * leaves it unchanged while a change to what it describes moves it.
 *
 * Usage: program_image_digest [--golden=path [--update]]
 *   --update rewrites the golden from this run instead of checking it.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workload/program_builder.hh"

namespace
{

using namespace hp;

/** 64-bit FNV-1a over values fed as 8 little-endian bytes each. */
class Fnv1a
{
  public:
    void
    value(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    text(const std::string &s)
    {
        value(s.size());
        for (char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Marks every function @p root reaches through call candidates. */
std::vector<bool>
reachableFrom(const Program &program, FuncId root)
{
    std::vector<bool> reached(program.numFunctions(), false);
    std::vector<FuncId> pending{root};
    reached[root] = true;
    while (!pending.empty()) {
        const Function &fn = program.func(pending.back());
        pending.pop_back();
        for (const BodyOp &op : fn.body) {
            if (op.kind != OpKind::CallSite)
                continue;
            for (FuncId callee : fn.candidates(op)) {
                if (!reached[callee]) {
                    reached[callee] = true;
                    pending.push_back(callee);
                }
            }
        }
    }
    return reached;
}

/** The golden line of @p binary's image. */
std::string
describe(const std::string &binary, const BuiltApp &app)
{
    Fnv1a h;
    std::uint64_t reachable = 0, insts = 0, call_sites = 0;
    const Program &program = app.program;
    const std::vector<bool> reached =
        reachableFrom(program, app.requestDriver);
    h.value(program.numFunctions());
    for (const Function &fn : program.functions()) {
        const bool full = reached[fn.id];
        h.text(fn.name);
        h.value(fn.module);
        h.value(fn.addr);
        h.value(fn.numInsts());
        h.value(full);
        reachable += full;
        insts += fn.numInsts();
        for (const BodyOp &op : fn.body) {
            const bool call = op.kind == OpKind::CallSite;
            if (!full && !call && op.kind != OpKind::Ret)
                continue;
            const bool jump =
                op.kind == OpKind::Branch || op.kind == OpKind::Loop;
            h.value(static_cast<std::uint64_t>(op.kind));
            h.value(op.offset);
            h.value(op.kind == OpKind::Run || jump ? op.length : 0);
            h.value(jump ? op.targetIdx : 0);
            h.value(op.biasTaken);
            h.value(op.jitter);
            h.value(op.meanIter);
            h.value(op.execProb);
            h.value(op.execJitter);
            h.value(op.indirect);
            if (!call)
                continue;
            ++call_sites;
            const std::span<const FuncId> candidates = fn.candidates(op);
            h.value(candidates.size());
            for (FuncId callee : candidates)
                h.value(callee);
        }
    }
    const std::vector<Addr> &tagged = app.image.section.taggedInstructions;
    h.value(tagged.size());
    for (Addr pc : tagged)
        h.value(pc);
    const std::vector<FuncId> &entries = app.image.analysis.entries;
    h.value(entries.size());
    for (FuncId f : entries)
        h.value(f);

    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-8s funcs=%zu reachable=%llu insts=%llu callsites=%llu "
                  "digest=%016llx\n",
                  binary.c_str(), program.numFunctions(),
                  (unsigned long long)reachable, (unsigned long long)insts,
                  (unsigned long long)call_sites,
                  (unsigned long long)h.digest());
    return line;
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::handleCommonArgs(argc, argv, "program_image_digest",
                              hpbench::kGoldenFlags);

    // One image at a time: a fresh build, dropped after its line.
    std::string text;
    for (const std::string &binary : allBinaries()) {
        auto app = ProgramBuilder::build(appProfile(workloadForBinary(binary)));
        text += describe(binary, *app);
    }
    std::fputs(text.c_str(), stdout);

    const bool ok = hpbench::checkGolden(argc, argv, text);
    std::fprintf(stderr, "program_image_digest: %s (%zu binaries)\n",
                 ok ? "OK" : "FAILED", allBinaries().size());
    return ok ? 0 : 1;
}
