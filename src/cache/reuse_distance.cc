#include "cache/reuse_distance.hh"

#include "util/serialize.hh"

#include <algorithm>

namespace hp
{

namespace
{

constexpr std::size_t kInitialCapacity = 1u << 20;

} // namespace

void
ReuseDistanceTracker::bitAdd(std::size_t pos, int delta)
{
    if (pos >= tree_.size()) {
        // Grow to the next power of two and rebuild: every resident
        // block has exactly one mark, at its last access sequence.
        std::size_t capacity = std::max(tree_.size() * 2,
                                        kInitialCapacity);
        while (capacity <= pos)
            capacity *= 2;
        tree_.assign(capacity, 0);
        lastSeq_.forEach([this, capacity](Addr, std::uint64_t last) {
            for (std::size_t i = static_cast<std::size_t>(last) + 1;
                 i <= capacity; i += i & (~i + 1)) {
                tree_[i - 1] += 1;
            }
        });
        // The mark being re-added right now was already re-inserted by
        // the loop above iff it is present in lastSeq_; compensate by
        // falling through to the normal add only for new marks. The
        // caller always updates lastSeq_ before bitAdd(+1), so undo one
        // increment for that entry here.
        if (delta > 0) {
            for (std::size_t i = pos + 1; i <= tree_.size();
                 i += i & (~i + 1)) {
                tree_[i - 1] -= 1;
            }
        }
    }
    for (std::size_t i = pos + 1; i <= tree_.size(); i += i & (~i + 1))
        tree_[i - 1] += delta;
}

std::uint64_t
ReuseDistanceTracker::bitPrefix(std::size_t pos) const
{
    // Sum of marks in [0, pos].
    std::uint64_t total = 0;
    std::size_t i = std::min(pos + 1, tree_.size());
    for (; i > 0; i -= i & (~i + 1))
        total += static_cast<std::uint64_t>(tree_[i - 1]);
    return total;
}

std::uint64_t
ReuseDistanceTracker::access(Addr block)
{
    std::uint64_t now = seq_++;

    std::uint64_t distance = kColdAccess;
    auto [last, fresh] = lastSeq_.insert(block);
    if (!fresh) {
        // Unique blocks accessed strictly after `last`, excluding the
        // mark of `block` itself at `last`.
        distance = bitPrefix(static_cast<std::size_t>(now)) -
                   bitPrefix(static_cast<std::size_t>(*last));
        bitAdd(static_cast<std::size_t>(*last), -1);
    }
    *last = now;
    bitAdd(static_cast<std::size_t>(now), +1);
    return distance;
}

template <class Ar>
void
ReuseDistanceTracker::serializeState(Ar &ar)
{
    io(ar, lastSeq_);
    io(ar, tree_);
    io(ar, seq_);
}

template void ReuseDistanceTracker::serializeState(StateWriter &);
template void ReuseDistanceTracker::serializeState(StateLoader &);

} // namespace hp
