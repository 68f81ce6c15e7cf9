/**
 * @file
 * The software/hardware interface (Section 5.2): the linker-side pass
 * that records Bundle entry points in a binary segment, and the
 * loader-side pass that tags the corresponding call and return
 * instructions via the reserved encoding bit.
 */

#ifndef HP_CORE_LOADER_HH
#define HP_CORE_LOADER_HH

#include <cstdint>
#include <vector>

#include "binary/program.hh"
#include "core/bundle_analysis.hh"
#include "util/flat_map.hh"

namespace hp
{

/**
 * The ELF-like metadata segment emitted at link time: the addresses of
 * every instruction that must carry the Bundle entry tag. Tagged
 * instructions are (a) call instructions whose callee (or any indirect
 * candidate) is a Bundle entry function and (b) the return instructions
 * of Bundle entry functions.
 */
struct BundleInfoSection
{
    /** Sorted, unique addresses of tagged instructions. */
    std::vector<Addr> taggedInstructions;

    /** Entry functions, kept for diagnostics. */
    std::vector<FuncId> entryFunctions;
};

/** Builds the metadata segment from an analysis result. */
BundleInfoSection buildBundleInfo(const Program &program,
                                  const BundleAnalysis &analysis);

/**
 * Loader-side tag map: O(1) "is this instruction tagged?" lookups,
 * emulating the reserved bit the loader sets in each call/ret encoding.
 */
class TagMap
{
  public:
    TagMap() = default;

    explicit TagMap(const BundleInfoSection &section)
    {
        for (Addr pc : section.taggedInstructions)
            tags_.insert(pc);
    }

    bool isTagged(Addr pc) const { return tags_.contains(pc); }

    std::size_t size() const { return tags_.size(); }

  private:
    FlatSet<Addr> tags_;
};

/** Everything the link+load pipeline produces for one program. */
struct LinkedImage
{
    BundleAnalysis analysis;
    BundleInfoSection section;
    TagMap tags;
};

/**
 * Convenience wrapper for the full software flow: call-graph
 * construction, Algorithm 1, segment emission, and tagging.
 */
LinkedImage linkAndTag(const Program &program,
                       std::uint64_t threshold = kDefaultBundleThreshold);

} // namespace hp

#endif // HP_CORE_LOADER_HH
