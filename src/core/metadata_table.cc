#include "core/metadata_table.hh"

#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

namespace
{

unsigned
setsFor(unsigned entries, unsigned ways)
{
    fatalIf(ways == 0 || entries == 0 || entries % ways != 0,
            "Metadata Address Table geometry invalid");
    const unsigned sets = entries / ways;
    fatalIf((sets & (sets - 1)) != 0,
            "Metadata Address Table set count must be a power of two");
    return sets;
}

} // namespace

MetadataAddressTable::MetadataAddressTable(unsigned entries, unsigned ways,
                                           unsigned pointer_bits)
    : setBits_(0), pointerBits_(pointer_bits),
      table_(setsFor(entries, ways), ways), heads_(table_.size(), kNoSeg)
{
    while ((1u << setBits_) < table_.sets())
        ++setBits_;
}

std::optional<SegIdx>
MetadataAddressTable::lookup(BundleId id)
{
    const auto [wb, we] = wayRange();
    const std::size_t slot = table_.find(setIndex(id), tagOf(id), wb, we);
    if (slot == table_.kNone)
        return std::nullopt;
    table_.touch(slot);
    return heads_[slot];
}

void
MetadataAddressTable::insert(BundleId id, SegIdx head)
{
    // An earlier hole wins over a resident copy of the ID, which then
    // stays resident behind it; lookup finds the new (first) copy.
    const auto [wb, we] = wayRange();
    const std::size_t slot =
        table_.victim(setIndex(id), tagOf(id), wb, we);
    table_.fill(slot, tagOf(id));
    heads_[slot] = head;
}

void
MetadataAddressTable::invalidate(BundleId id)
{
    const auto [wb, we] = wayRange();
    const std::size_t slot = table_.find(setIndex(id), tagOf(id), wb, we);
    if (slot != table_.kNone)
        table_.invalidate(slot);
}

std::size_t
MetadataAddressTable::invalidateAll()
{
    // Flush only the ways the active tenant may touch, so a
    // partitioned flush (not used by the switch model, which keeps
    // partitioned metadata warm) stays confined to its slice.
    const auto [wb, we] = wayRange();
    return table_.invalidateWays(wb, we);
}

void
MetadataAddressTable::setWayPartitions(unsigned count)
{
    fatalIf(count == 0 || count > table_.ways(),
            "Metadata Address Table: need at least one way per tenant");
    partCount_ = count;
    activePart_ = 0;
}

void
MetadataAddressTable::setActiveTenant(unsigned tenant)
{
    fatalIf(partCount_ != 0 && tenant >= partCount_,
            "Metadata Address Table: tenant beyond partition count");
    activePart_ = partCount_ == 0 ? 0 : tenant;
}

std::uint64_t
MetadataAddressTable::storageBits() const
{
    // Per entry: tag + pointer + valid bit; plus one LRU bit per way
    // as in the paper's 15872-bit accounting for 512 x 8-way.
    std::uint64_t tag_bits = kBundleIdBits - setBits_;
    std::uint64_t per_entry = tag_bits + pointerBits_ + 1 + 1;
    return per_entry * numEntries();
}

std::size_t
MetadataAddressTable::occupancy() const
{
    return table_.occupancy();
}

template <class Ar>
void
MetadataAddressTable::serializeState(Ar &ar)
{
    if (table_.serializeState(ar))
        ioElements(ar, heads_);
}

template void MetadataAddressTable::serializeState(StateWriter &);
template void MetadataAddressTable::serializeState(StateLoader &);

} // namespace hp
