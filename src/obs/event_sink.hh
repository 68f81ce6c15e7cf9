/**
 * @file
 * The per-simulator event recorder: a bounded ring of TraceEvents.
 *
 * The record path is built to vanish from the simulation's cost model
 * when observability is off. Components hold a plain `EventSink *`
 * that stays nullptr unless tracing was requested, and every emit site
 * goes through HP_EMIT, which compiles to a single null check. When
 * the ring fills, the oldest events are dropped and counted, so a long
 * run keeps its most recent window — usually the interesting part — at
 * a fixed memory bound.
 */

#ifndef HP_OBS_EVENT_SINK_HH
#define HP_OBS_EVENT_SINK_HH

#include <cstdint>
#include <vector>

#include "obs/event.hh"
#include "util/ring_buffer.hh"

namespace hp
{

class EventSink
{
  public:
    explicit EventSink(std::size_t capacity = 1 << 20)
        : cap_(capacity ? capacity : 1), ring_(cap_)
    {
    }

    /** Records one event; drops (and counts) the oldest when full. */
    void
    emit(EventKind kind, Cycle cycle, Addr addr = 0,
         std::uint32_t dur = 0, std::uint64_t arg = 0,
         std::uint8_t origin = 0)
    {
        if (ring_.size() >= cap_) {
            ring_.pop_front();
            ++dropped_;
        }
        TraceEvent ev;
        ev.cycle = cycle;
        ev.addr = addr;
        ev.arg = arg;
        ev.dur = dur;
        ev.kind = kind;
        ev.origin = origin;
        ring_.push_back(ev);
        ++emitted_;
    }

    /** Span helper: [start, end) in cycles. */
    void
    emitSpan(EventKind kind, Cycle start, Cycle end, Addr addr = 0,
             std::uint64_t arg = 0, std::uint8_t origin = 0)
    {
        std::uint32_t dur = end > start
            ? static_cast<std::uint32_t>(end - start) : 0;
        emit(kind, start, addr, dur, arg, origin);
    }

    std::size_t size() const { return ring_.size(); }
    std::size_t capacity() const { return cap_; }
    std::uint64_t emitted() const { return emitted_; }
    /** Events dropped since the last drain. */
    std::uint64_t dropped() const { return dropped_; }

    /** Moves the retained events out, oldest first; the drop count
     *  restarts with them. */
    std::vector<TraceEvent>
    drain()
    {
        std::vector<TraceEvent> out;
        out.reserve(ring_.size());
        for (std::size_t i = 0; i < ring_.size(); ++i)
            out.push_back(ring_[i]);
        ring_.clear();
        dropped_ = 0;
        return out;
    }

  private:
    std::size_t cap_;
    RingBuffer<TraceEvent> ring_;
    std::uint64_t emitted_ = 0;
    std::uint64_t dropped_ = 0;
};

/**
 * Emit-site macro: `HP_EMIT(obs_, emit(...))`. A null sink (the
 * default) costs one predictable branch.
 */
#define HP_EMIT(sink, call)                                               \
    do {                                                                  \
        if (sink)                                                         \
            (sink)->call;                                                 \
    } while (0)

} // namespace hp

#endif // HP_OBS_EVENT_SINK_HH
