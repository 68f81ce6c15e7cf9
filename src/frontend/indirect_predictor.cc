#include "frontend/indirect_predictor.hh"

#include "util/hash.hh"
#include "util/serialize.hh"
#include "util/logging.hh"

namespace hp
{

IndirectPredictor::IndirectPredictor(unsigned log_base, unsigned log_tagged,
                                     unsigned num_tables)
    : logBase_(log_base), logTagged_(log_tagged), numTables_(num_tables)
{
    fatalIf(num_tables == 0 || num_tables > 8,
            "IndirectPredictor supports 1..8 tagged tables");
    base_.assign(1u << logBase_, 0);
    tagged_.assign(numTables_, std::vector<Entry>(1u << logTagged_));
    unsigned len = 6;
    for (unsigned t = 0; t < numTables_; ++t) {
        historyLens_.push_back(len);
        len *= 3;
        if (len > 60)
            len = 60;
    }
}

unsigned
IndirectPredictor::indexOf(unsigned table, Addr pc) const
{
    std::uint64_t hist = historyLens_[table] >= 64
        ? pathHistory_
        : (pathHistory_ & ((1ull << historyLens_[table]) - 1));
    std::uint64_t h = hashCombine(mix64(hist), pc >> 2);
    return static_cast<unsigned>(h & ((1u << logTagged_) - 1));
}

std::uint16_t
IndirectPredictor::tagOf(unsigned table, Addr pc) const
{
    std::uint64_t hist = historyLens_[table] >= 64
        ? pathHistory_
        : (pathHistory_ & ((1ull << historyLens_[table]) - 1));
    std::uint64_t h = hashCombine(mix64(hist * 5), (pc >> 2) * 11);
    return static_cast<std::uint16_t>((h >> 17) & 0x3fff);
}

Addr
IndirectPredictor::predict(Addr pc)
{
    providerTable_ = -1;
    lastPc_ = pc;

    for (int t = static_cast<int>(numTables_) - 1; t >= 0; --t) {
        unsigned idx = indexOf(t, pc);
        const Entry &e = tagged_[t][idx];
        if (e.tag == tagOf(t, pc) && e.target != 0) {
            providerTable_ = t;
            providerIndex_ = idx;
            lastPrediction_ = e.target;
            return lastPrediction_;
        }
    }

    unsigned idx = static_cast<unsigned>(mix64(pc >> 2)
                                         & ((1u << logBase_) - 1));
    providerIndex_ = idx;
    lastPrediction_ = base_[idx];
    return lastPrediction_;
}

void
IndirectPredictor::update(Addr pc, Addr target)
{
    panicIf(pc != lastPc_, "IndirectPredictor::update out of order");
    ++predictions_;
    bool correct = (lastPrediction_ == target);
    if (!correct)
        ++mispredicts_;

    if (providerTable_ >= 0) {
        Entry &e = tagged_[providerTable_][providerIndex_];
        if (correct) {
            if (e.confidence < 3)
                ++e.confidence;
        } else if (e.confidence > 0) {
            --e.confidence;
        } else {
            e.target = target;
        }
    } else {
        base_[providerIndex_] = target;
    }

    if (!correct && providerTable_ + 1 < static_cast<int>(numTables_)) {
        for (unsigned t = providerTable_ + 1; t < numTables_; ++t) {
            unsigned idx = indexOf(t, pc);
            Entry &e = tagged_[t][idx];
            if (e.confidence == 0) {
                e.tag = tagOf(t, pc);
                e.target = target;
                e.confidence = 1;
                break;
            }
            --e.confidence;
        }
    }

    pathHistory_ = (pathHistory_ << 4) ^ (mix64(target) & 0xf);
}

template <class Ar>
void
IndirectPredictor::serializeState(Ar &ar)
{
    // The lookups index the tables by the configured geometry, so a
    // blob of another table size is rejected, never resized to.
    const char *why = "ITTAGE table size differs from its geometry";
    if (!checkShape(ar, base_, why))
        return;
    ioElements(ar, base_);
    if (!checkShape(ar, tagged_, why))
        return;
    for (std::vector<Entry> &table : tagged_) {
        if (!checkShape(ar, table, why))
            return;
        ioElements(ar, table);
    }
    io(ar, pathHistory_);
    io(ar, providerTable_);
    io(ar, providerIndex_);
    io(ar, lastPrediction_);
    io(ar, lastPc_);
}

template void IndirectPredictor::serializeState(StateWriter &);
template void IndirectPredictor::serializeState(StateLoader &);

} // namespace hp
