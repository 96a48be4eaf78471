/**
 * @file
 * The one discrete-event queue of the virtual-clock simulators
 * (serve::MultiStreamServer, mapserve::MapServeSim).
 *
 * Events pop in (timeMs, kind, id, seq) order, so a simulation is a
 * pure function of its seeds. Each simulator numbers its kind enum
 * as its tie order at one instant; id (stream, vehicle) and seq break
 * the remaining ties. The optional payload never takes part in the
 * order, and an empty one takes no space.
 *
 * wakeAt() is the coalesced self-wake-up ("look at the engine again
 * at t"): it pushes a keyless event of the kind only when t is
 * earlier than the wake pending for that kind. The mark is cleared
 * when any event of the kind pops, a stale later wake included, so
 * a stale wake costs one extra pop and never hides a needed one.
 */

#ifndef AD_COMMON_EVENT_LOOP_HH
#define AD_COMMON_EVENT_LOOP_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

namespace ad {

/** Payload of events that carry nothing beyond their key. */
struct NoPayload
{
};

/** One discrete event, ordered by (timeMs, kind, id, seq). */
template <typename Kind, typename Payload = NoPayload> struct SimEvent
{
    double timeMs = 0.0;
    Kind kind{};
    int id = -1;            ///< entity (stream, vehicle); -1 for none.
    std::int64_t seq = -1;  ///< per-entity sequence number.
    [[no_unique_address]] Payload payload{};

    bool
    operator>(const SimEvent& o) const
    {
        if (timeMs != o.timeMs)
            return timeMs > o.timeMs;
        if (kind != o.kind)
            return static_cast<int>(kind) > static_cast<int>(o.kind);
        if (id != o.id)
            return id > o.id;
        return seq > o.seq;
    }
};

/** Min-queue of SimEvents and the virtual clock they advance. */
template <typename Kind, typename Payload = NoPayload> class EventLoop
{
  public:
    using Event = SimEvent<Kind, Payload>;

    /** Kind values must lie in [0, kMaxKinds) (checked). */
    static constexpr std::size_t kMaxKinds = 8;

    EventLoop() { pendingWakeMs_.fill(kNever); }

    void push(const Event& ev) { queue_.push(ev); }

    /** Push a keyless `kind` event at timeMs unless one at or before
        it is already pending. */
    void
    wakeAt(double timeMs, Kind kind)
    {
        double& pending = pendingWakeMs_.at(static_cast<std::size_t>(kind));
        if (!(timeMs < pending))
            return;
        pending = timeMs;
        queue_.push(Event{timeMs, kind, -1, -1, Payload{}});
    }

    /** Pop and handle, in order, every event with timeMs <= untilMs,
        including those the handler schedules in that window. lastMs()
        has moved to the event's time when handler(ev) runs. */
    template <typename Handler>
    void
    runUntil(double untilMs, Handler&& handler)
    {
        while (!queue_.empty() && queue_.top().timeMs <= untilMs) {
            const Event ev = queue_.top();
            queue_.pop();
            pendingWakeMs_.at(static_cast<std::size_t>(ev.kind)) = kNever;
            lastMs_ = std::max(lastMs_, ev.timeMs);
            handler(ev);
        }
    }

    /** Time of the next pending event (+inf when empty). */
    double nextMs() const { return empty() ? kNever : queue_.top().timeMs; }

    /** Latest event time handled so far (0 before the first). */
    double lastMs() const { return lastMs_; }

    bool empty() const { return queue_.empty(); }

  private:
    static constexpr double kNever = std::numeric_limits<double>::infinity();

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue_;
    std::array<double, kMaxKinds> pendingWakeMs_{};
    double lastMs_ = 0.0;
};

} // namespace ad

#endif // AD_COMMON_EVENT_LOOP_HH
