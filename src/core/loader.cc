#include "core/loader.hh"

#include <algorithm>

namespace hp
{

BundleInfoSection
buildBundleInfo(const Program &program, const BundleAnalysis &analysis)
{
    BundleInfoSection section;
    section.entryFunctions = analysis.entries;

    for (const Function &fn : program.functions()) {
        for (const BodyOp &op : fn.body) {
            switch (op.kind) {
              case OpKind::CallSite:
                // Tag the call if any candidate callee is an entry; at
                // run time the hardware derives the Bundle ID from the
                // actual target, so indirect sites with a mix of entry
                // and non-entry candidates still behave sensibly.
                for (FuncId callee : fn.candidates(op)) {
                    if (analysis.isEntry(callee)) {
                        section.taggedInstructions.push_back(
                            fn.instAddr(op.offset));
                        break;
                    }
                }
                break;
              case OpKind::Ret:
                if (analysis.isEntry(fn.id)) {
                    section.taggedInstructions.push_back(
                        fn.instAddr(op.offset));
                }
                break;
              default:
                break;
            }
        }
    }

    std::sort(section.taggedInstructions.begin(),
              section.taggedInstructions.end());
    section.taggedInstructions.erase(
        std::unique(section.taggedInstructions.begin(),
                    section.taggedInstructions.end()),
        section.taggedInstructions.end());
    return section;
}

LinkedImage
linkAndTag(const Program &program, std::uint64_t threshold)
{
    LinkedImage image;
    CallGraph graph(program);
    image.analysis = findBundleEntries(graph, threshold);
    image.section = buildBundleInfo(program, image.analysis);
    image.tags = TagMap(image.section);
    return image;
}

} // namespace hp
