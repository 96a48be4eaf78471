#include "pipeline/scheduler.hh"

#include <algorithm>
#include <deque>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace ad::pipeline {

ScheduleStats
simulateSchedule(const std::function<double()>& sampler, int frames,
                 const SchedulerParams& params)
{
    if (params.framePeriodMs <= 0 || params.deadlineMs <= 0 ||
        params.queueDepth < 0)
        fatal("simulateSchedule: invalid parameters");

    ScheduleStats stats;
    LatencyRecorder responses(static_cast<std::size_t>(frames));

    double engineFreeAt = 0.0; // time the engine finishes current work
    std::deque<double> queue;  // arrival times of waiting frames

    // Serve the frame at the head of the queue: it starts once both
    // it and the engine are ready.
    const auto serveHead = [&] {
        engineFreeAt = std::max(queue.front(), engineFreeAt) + sampler();
        const double response = engineFreeAt - queue.front();
        responses.record(response);
        ++stats.framesProcessed;
        stats.deadlineMisses += response > params.deadlineMs;
        queue.pop_front();
    };

    for (int i = 0; i < frames; ++i) {
        const double arrival = i * params.framePeriodMs;
        ++stats.framesArrived;

        // Drain every queued frame the engine finished before this
        // arrival.
        while (!queue.empty() && engineFreeAt <= arrival)
            serveHead();

        // The queue holds only waiting frames (the in-service frame's
        // arrival was already popped); queueDepth bounds the waiters.
        if (static_cast<int>(queue.size()) >= params.queueDepth &&
            engineFreeAt > arrival) {
            // Saturated: this camera frame is never examined -- the
            // system is driving on stale information.
            ++stats.framesDropped;
            continue;
        }
        queue.push_back(arrival);
    }

    // Drain the tail.
    while (!queue.empty())
        serveHead();

    stats.responseTime = responses.summary();
    // The engine last finished at the final completion.
    if (engineFreeAt > 0)
        stats.achievedFps = 1000.0 * stats.framesProcessed / engineFreeAt;

    if (obs::metricsEnabled()) {
        auto& reg = obs::metrics();
        reg.counter("scheduler.frames_arrived")
            .add(static_cast<std::uint64_t>(stats.framesArrived));
        reg.counter("scheduler.frames_processed")
            .add(static_cast<std::uint64_t>(stats.framesProcessed));
        reg.counter("scheduler.frames_dropped")
            .add(static_cast<std::uint64_t>(stats.framesDropped));
        reg.counter("scheduler.deadline_misses")
            .add(static_cast<std::uint64_t>(stats.deadlineMisses));
        reg.histogram("scheduler.response_ms").mergeFrom(responses);
    }
    return stats;
}

} // namespace ad::pipeline
