#include "obs/interval_sampler.hh"

namespace hp
{

IntervalSampler::IntervalSampler(const StatsRegistry &registry,
                                 std::uint64_t interval)
    : registry_(registry),
      interval_(interval ? interval : 1),
      nextAt_(interval ? interval : 1)
{
}

IntervalSampler::Cursor
IntervalSampler::read() const
{
    Cursor c;
    c.cycles = registry_.value("sim.cycles");
    c.l1iAccesses = registry_.value("l1i.demand_accesses");
    c.l1iMisses = registry_.value("l1i.demand_misses");
    c.dramBytes = registry_.value("dram.demand_bytes") +
                  registry_.value("dram.fdip_bytes") +
                  registry_.value("dram.ext_bytes");
    c.metadataBytes = registry_.value("dram.metadata_read_bytes") +
                      registry_.value("dram.metadata_write_bytes");
    return c;
}

void
IntervalSampler::sample(std::uint64_t committed, bool measuring)
{
    Cursor now = read();
    SampleRow row;
    row.measuring = measuring;
    row.insts = committed;
    row.cycles = now.cycles;
    row.dInsts = committed - lastInsts_;
    row.dCycles = now.cycles - last_.cycles;
    row.dL1iAccesses = now.l1iAccesses - last_.l1iAccesses;
    row.dL1iMisses = now.l1iMisses - last_.l1iMisses;
    row.dDramBytes = now.dramBytes - last_.dramBytes;
    row.dMetadataBytes = now.metadataBytes - last_.metadataBytes;
    rows_.push_back(row);

    lastInsts_ = committed;
    last_ = now;
    // Skip boundaries the run jumped over (wide commit groups).
    while (nextAt_ <= committed)
        nextAt_ += interval_;
}

void
IntervalSampler::anchor(std::uint64_t committed)
{
    lastInsts_ = committed;
    last_ = read();
    nextAt_ = (committed / interval_ + 1) * interval_;
}

void
IntervalSampler::finalSample(std::uint64_t committed, bool measuring)
{
    if (committed > lastInsts_)
        sample(committed, measuring);
}

} // namespace hp
