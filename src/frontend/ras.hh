/**
 * @file
 * Return Address Stack with a bounded depth: deep call chains wrap and
 * corrupt predictions, exactly the behaviour caller-callee prefetchers
 * like RDIP/EFetch build their signatures around.
 */

#ifndef HP_FRONTEND_RAS_HH
#define HP_FRONTEND_RAS_HH

#include <cstdint>
#include <vector>

#include "stats/registry.hh"
#include "util/types.hh"

namespace hp
{

/** Circular return-address stack. */
class Ras
{
  public:
    explicit Ras(unsigned depth = 32);

    /** Pushes the return address of a call. */
    void push(Addr return_addr);

    /**
     * Pops the predicted return target.
     * @return 0 when the stack has underflowed (prediction unknown).
     */
    Addr pop();

    /** Peeks the @p n top entries, newest first (for signatures). */
    std::vector<Addr> top(unsigned n) const;

    unsigned size() const { return size_; }
    unsigned depth() const { return depth_; }

    std::uint64_t overflows() const { return overflows_; }
    std::uint64_t underflows() const { return underflows_; }

    /** Serializes/restores the stack. */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        if (!checkShape(ar, stack_))
            return;
        for (Addr &a : stack_)
            ar.value(a);
        ar.value(topIdx_);
        ar.value(size_);
    }

    /** Registers this stack's counters under @p prefix. */
    void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        reg.add(prefix + ".overflows", [this] { return overflows_; });
        reg.add(prefix + ".underflows", [this] { return underflows_; });
    }

  private:
    unsigned depth_;
    std::vector<Addr> stack_;
    unsigned topIdx_ = 0;
    unsigned size_ = 0;
    std::uint64_t overflows_ = 0;
    std::uint64_t underflows_ = 0;
};

} // namespace hp

#endif // HP_FRONTEND_RAS_HH
