/**
 * @file
 * SimulatorProbe: test-only access to the detailed loop's driver and
 * front-end state.
 *
 * It steps a Simulator, or a consolidation's cores, every cycle: the
 * reference that idle-cycle skipping (Simulator::runTo) and the
 * consolidation's event-ordered scheduler (MultiCoreSimulator::run)
 * must reproduce exactly. It also reads the state those tests compare
 * and sets the front-end fields the checkpoint-restore tests corrupt.
 */

#ifndef HP_TESTS_SIM_SIM_PROBE_HH
#define HP_TESTS_SIM_SIM_PROBE_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "util/serialize.hh"

namespace hp
{

class SimulatorProbe
{
  public:
    using FeBlock = Simulator::FeBlock;

    /** Simulator::runTo without skipping: steps every cycle until the
     *  commit that crosses @p target. */
    static void
    stepTo(Simulator &sim, std::uint64_t target)
    {
        while (sim.committed_ < target)
            sim.step();
    }

    static void runTo(Simulator &sim, std::uint64_t target)
    {
        sim.runTo(target);
    }

    /** Simulator::run, every cycle stepped. */
    static SimMetrics
    stepRun(Simulator &sim)
    {
        const SimConfig &cfg = sim.cfg_;
        sim.step();
        stepTo(sim, cfg.warmupInsts);
        sim.beginMeasurement();
        stepTo(sim, cfg.warmupInsts + cfg.measureInsts);
        return sim.endMeasurement(/*pay_advance=*/true);
    }

    /** Simulator::measureWindow, every cycle stepped. */
    static SimMetrics
    stepWindow(Simulator &sim, std::uint64_t insts)
    {
        sim.beginMeasurement();
        stepTo(sim, sim.committed_ + insts);
        return sim.endMeasurement(/*pay_advance=*/insts > 0);
    }

    /**
     * MultiCoreSimulator::run as a cycle-interleaved lockstep (a
     * nonzero budget): each pass steps every live core once, in index
     * order, idle or not, with each core's phase transitions after its
     * step; a finished core leaves the set.
     */
    static SimMetrics
    stepRun(MultiCoreSimulator &mc)
    {
        std::vector<bool> done(mc.coreCount(), false);
        unsigned live = mc.coreCount();
        while (live > 0) {
            for (unsigned i = 0; i < mc.coreCount(); ++i) {
                if (done[i])
                    continue;
                mc.cores_[i]->step();
                if (mc.crossPhases(i)) {
                    done[i] = true;
                    --live;
                }
            }
        }
        return mc.combineResults();
    }

    static Simulator &core(MultiCoreSimulator &mc, unsigned i)
    {
        return *mc.cores_[i];
    }

    static void step(Simulator &sim) { sim.step(); }

    /** The cycle the next step() runs. */
    static Cycle now(const Simulator &sim)
    {
        return sim.cycle_ + sim.owesAdvance_;
    }

    static Cycle nextActiveCycle(const Simulator &sim)
    {
        return sim.nextActiveCycle();
    }

    static std::uint64_t steps(const Simulator &sim) { return sim.steps_; }

    /** The serialized state. */
    static std::vector<std::uint8_t>
    state(Simulator &sim)
    {
        StateWriter w;
        sim.serializeState(w);
        return w.take();
    }

    /** The serialized state with the clock read as 0, so two states
     *  that differ only in time compare equal. */
    static std::vector<std::uint8_t>
    timelessState(Simulator &sim)
    {
        const Cycle clock = std::exchange(sim.cycle_, 0);
        std::vector<std::uint8_t> bytes = state(sim);
        sim.cycle_ = clock;
        return bytes;
    }

    /** The registry snapshot without sim.cycles. */
    static std::vector<StatsSnapshot::Entry>
    timelessStats(const Simulator &sim)
    {
        std::vector<StatsSnapshot::Entry> entries =
            sim.stats().snapshot().entries();
        std::erase_if(entries, [](const StatsSnapshot::Entry &e) {
            return e.first == "sim.cycles";
        });
        return entries;
    }

    /** Restores @p bytes into @p sim; the error when it fails. */
    static std::string
    restore(Simulator &sim, const std::vector<std::uint8_t> &bytes)
    {
        StateLoader loader(bytes.data(), bytes.size());
        sim.serializeState(loader);
        if (!loader.failed())
            return {};
        return loader.failReason() ? loader.failReason() : "truncated";
    }

    // ---- Front-end state, for the restore tests. ----

    /** Instructions of the window's front run, and the pc of its
     *  first. */
    static std::uint64_t frontRunInsts(const Simulator &sim)
    {
        return sim.window_.empty() ? 0 : sim.window_.front().n;
    }
    static Addr frontRunPc(const Simulator &sim)
    {
        return sim.window_.empty() ? 0 : sim.window_.front().first.pc;
    }

    /** Takes one instruction from the active stream that the window
     *  never sees. */
    static void
    skipStream(Simulator &sim)
    {
        DynInst inst;
        sim.stream_->next(inst, 1);
    }

    static std::uint64_t &committed(Simulator &sim) { return sim.committed_; }
    static std::uint64_t windowBase(const Simulator &sim)
    {
        return sim.windowBase_;
    }
    static std::uint64_t pullSeq(const Simulator &sim)
    {
        return sim.pullSeq_;
    }
    static std::uint64_t &bpSeq(Simulator &sim) { return sim.bpSeq_; }
    static std::uint64_t &fetchSeq(Simulator &sim) { return sim.fetchSeq_; }
    static FeBlock &feBlock(Simulator &sim) { return sim.feBlock_; }
    static std::uint64_t &feBlockSeq(Simulator &sim)
    {
        return sim.feBlockSeq_;
    }

    static std::size_t ftqSize(const Simulator &sim)
    {
        return sim.ftq_.size();
    }
    static std::uint64_t &ftqStart(Simulator &sim, std::size_t i)
    {
        return sim.ftq_[i].startSeq;
    }
    static std::uint64_t &ftqEnd(Simulator &sim, std::size_t i)
    {
        return sim.ftq_[i].endSeq;
    }
    static Addr &ftqBlock(Simulator &sim, std::size_t i)
    {
        return sim.ftq_[i].block;
    }
    static void clearFtq(Simulator &sim) { sim.ftq_.clear(); }

    static std::size_t fetchGroups(const Simulator &sim)
    {
        return sim.fetchGroups_.size();
    }
    static Cycle &fetchGroupCycle(Simulator &sim, std::size_t i)
    {
        return sim.fetchGroups_[i].cycle;
    }
    static std::uint64_t &fetchGroupEnd(Simulator &sim, std::size_t i)
    {
        return sim.fetchGroups_[i].endSeq;
    }
};

} // namespace hp

#endif // HP_TESTS_SIM_SIM_PROBE_HH
