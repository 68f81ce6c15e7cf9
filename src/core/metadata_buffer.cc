#include "core/metadata_buffer.hh"

#include "util/serialize.hh"

#include "util/logging.hh"

namespace hp
{

MetadataBuffer::MetadataBuffer(std::uint64_t capacity_bytes)
{
    std::uint64_t count = capacity_bytes / kSegmentEncodedBytes;
    fatalIf(count < 2, "Metadata Buffer too small for two segments");
    segments_.resize(count);
}

void
MetadataBuffer::setPartitions(unsigned count)
{
    fatalIf(count == 0, "Metadata Buffer: zero partitions");
    fatalIf(segments_.size() < 2ull * count,
            "Metadata Buffer too small for two segments per partition");
    partBase_.resize(count);
    partCursor_.resize(count);
    for (unsigned t = 0; t < count; ++t) {
        partBase_[t] =
            SegIdx(std::uint64_t(t) * segments_.size() / count);
        partCursor_[t] = partBase_[t];
    }
    activePart_ = 0;
}

void
MetadataBuffer::setActiveTenant(unsigned tenant)
{
    fatalIf(!partBase_.empty() && tenant >= partBase_.size(),
            "Metadata Buffer: tenant beyond partition count");
    activePart_ = partBase_.empty() ? 0 : tenant;
}

std::pair<SegIdx, SegIdx>
MetadataBuffer::partitionRange(unsigned tenant) const
{
    if (partBase_.empty())
        return {0, SegIdx(segments_.size())};
    const SegIdx lo = partBase_[tenant];
    const SegIdx hi = tenant + 1 < partBase_.size()
        ? partBase_[tenant + 1]
        : SegIdx(segments_.size());
    return {lo, hi};
}

std::pair<SegIdx, std::optional<std::uint32_t>>
MetadataBuffer::allocate(std::uint32_t owner, bool head)
{
    SegIdx idx;
    if (partBase_.empty()) {
        idx = cursor_;
        cursor_ = (cursor_ + 1) % segments_.size();
    } else {
        // Partitioned: the active tenant's private circular cursor,
        // confined to its quota range.
        const auto [lo, hi] = partitionRange(activePart_);
        idx = partCursor_[activePart_];
        SegIdx next = idx + 1;
        if (next >= hi)
            next = lo;
        partCursor_[activePart_] = next;
    }

    Segment &victim = segments_[idx];
    std::optional<std::uint32_t> invalidated;
    if (victim.live && victim.headOfBundle && victim.owner != owner)
        invalidated = victim.owner;

    victim.owner = owner;
    victim.headOfBundle = head;
    victim.live = true;
    victim.next = kNoSeg;
    victim.numInsts = 0;
    victim.regions.clear();
    return {idx, invalidated};
}

unsigned
MetadataBuffer::pointerBits() const
{
    unsigned bits = 1;
    while ((1ull << bits) < segments_.size())
        ++bits;
    return bits;
}

template <class Ar>
void
MetadataBuffer::serializeState(Ar &ar)
{
    // The segment count (checked, never resized to), the segments,
    // the cursor allocate() indexes.
    if (!checkShape(ar, segments_,
                    "metadata buffer: the segment list's count differs "
                    "from its geometry"))
        return;
    ioElements(ar, segments_);
    io(ar, cursor_);
    if constexpr (Ar::loading) {
        if (cursor_ >= segments_.size()) {
            ar.markFailed("metadata buffer: the cursor is past its "
                          "segments");
            cursor_ = 0;
        }
    }
}

template void MetadataBuffer::serializeState(StateWriter &);
template void MetadataBuffer::serializeState(StateLoader &);

} // namespace hp
