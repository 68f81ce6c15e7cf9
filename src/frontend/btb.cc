#include "frontend/btb.hh"

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

namespace
{

/** Set count of a finite BTB; the infinite one's table is empty. */
unsigned
setsFor(unsigned entries, unsigned ways)
{
    if (entries == 0)
        return 0;
    fatalIf(ways == 0 || entries % ways != 0, "BTB geometry invalid");
    const unsigned sets = entries / ways;
    fatalIf((sets & (sets - 1)) != 0,
            "BTB set count must be a power of two");
    return sets;
}

} // namespace

Btb::Btb(unsigned entries, unsigned ways)
    : infinite_(entries == 0),
      table_(setsFor(entries, ways), infinite_ ? 1 : ways),
      targets_(table_.size())
{
}

unsigned
Btb::setIndex(Addr pc) const
{
    return table_.setOf(mix64(pc >> 2));
}

std::optional<Addr>
Btb::lookup(Addr pc)
{
    ++lookups_;
    if (infinite_) {
        if (const Addr *target = infTable_.find(pc))
            return *target;
        ++misses_;
        return std::nullopt;
    }

    const std::size_t slot = table_.find(setIndex(pc), pc);
    if (slot == table_.kNone) {
        ++misses_;
        return std::nullopt;
    }
    table_.touch(slot);
    return targets_[slot];
}

void
Btb::update(Addr pc, Addr target)
{
    if (infinite_) {
        infTable_[pc] = target;
        return;
    }

    const std::size_t slot = table_.victim(setIndex(pc), pc);
    table_.fill(slot, pc);
    targets_[slot] = target;
}

template <class Ar>
void
Btb::serializeState(Ar &ar)
{
    if (!table_.serializeState(ar))
        return;
    ioElements(ar, targets_);
    io(ar, infTable_);
}

template void Btb::serializeState(StateWriter &);
template void Btb::serializeState(StateLoader &);

} // namespace hp
