#include "serve/serve.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/time.hh"
#include "nn/kernel_context.hh"
#include "nn/network.hh"
#include "obs/flight.hh"

namespace ad::serve {

// ---------------------------------------------------------------- engines

ModeledBatchEngine::ModeledBatchEngine(const ModeledEngineParams& params)
    : params_(params), rng_(params.seed)
{
    if (params.fixedMs < 0 || params.marginalMs <= 0)
        fatal("ModeledBatchEngine: invalid cost model");
}

double
ModeledBatchEngine::meanCostMs(double totalCostScale) const
{
    return params_.fixedMs + params_.marginalMs * totalCostScale;
}

double
ModeledBatchEngine::runBatch(const Batch& batch)
{
    // Fixed draw count per call (jitter, spike) keeps the cost
    // stream a pure function of (seed, call index).
    const double jitter = rng_.lognormal(
        -0.5 * params_.jitterSigma * params_.jitterSigma,
        params_.jitterSigma);
    const bool spike = rng_.bernoulli(params_.spikeP);
    double cost = meanCostMs(batch.totalCostScale()) * jitter;
    if (spike)
        cost *= params_.spikeFactor;
    return cost;
}

NnBatchEngine::NnBatchEngine(const nn::Network& net,
                             std::vector<nn::Tensor> inputs,
                             int threads)
    : net_(net), inputs_(std::move(inputs)),
      ctx_(std::make_unique<nn::KernelContext>(
          nn::kernelContext(threads)))
{
    if (inputs_.empty())
        fatal("NnBatchEngine: no per-stream inputs");
}

NnBatchEngine::~NnBatchEngine() = default;

double
NnBatchEngine::runBatch(const Batch& batch)
{
    std::vector<nn::Tensor> ins;
    ins.reserve(batch.size());
    for (const auto& item : batch.items)
        ins.push_back(
            inputs_[static_cast<std::size_t>(item.ticket.stream) %
                    inputs_.size()]);
    Stopwatch watch;
    const std::vector<nn::Tensor> outs =
        net_.forwardBatch(ins, *ctx_);
    const double ms = watch.elapsedMs();
    // Order-independent output digest: XOR of each item's summed
    // output bit pattern -- identical whatever the batching was.
    std::uint64_t digest = 0;
    std::memcpy(&digest, &checksum_, sizeof(double));
    for (const auto& out : outs) {
        double sum = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i)
            sum += out.data()[i];
        std::uint64_t bits = 0;
        std::memcpy(&bits, &sum, sizeof(double));
        digest ^= bits;
    }
    std::memcpy(&checksum_, &digest, sizeof(double));
    return ms;
}

// ----------------------------------------------------------------- report

std::string
ServeReport::toString() const
{
    std::ostringstream oss;
    oss << "serve: " << framesArrived << " frames arrived, "
        << framesAdmitted << " engine-served (" << framesDegraded
        << " degraded), " << framesCoasted << " coasted, "
        << framesShed << " shed (" << 100.0 * shedRate << "%)\n";
    oss << "  admitted latency: " << admittedLatency.toString()
        << "\n";
    oss << "  deadline misses (engine-served): " << deadlineMisses
        << ", goodput " << goodputFps << " fps (total "
        << totalGoodputFps << " fps)\n";
    oss << "  batches: " << batches << ", mean size " << meanBatchSize
        << ", mean wait " << meanBatchWaitMs << " ms, "
        << pressureEscalations << " pressure escalations\n";
    oss << "  mode residency:";
    for (std::size_t m = 0; m < pipeline::kOperatingModeCount; ++m)
        oss << ' '
            << pipeline::modeName(
                   static_cast<pipeline::OperatingMode>(m))
            << '=' << framesInMode[m];
    oss << '\n';
    if (!streamSlo.empty()) {
        double worstP99 = -1.0, maxBurn = 0.0, meanGoodput = 0.0;
        for (const auto& s : streamSlo) {
            worstP99 = std::max(worstP99, s.p99Ms);
            maxBurn = std::max(maxBurn, s.burnRate);
            meanGoodput += s.goodputRatio;
        }
        meanGoodput /= static_cast<double>(streamSlo.size());
        oss << "  slo: worst window p99 " << worstP99
            << " ms, max burn rate " << maxBurn
            << ", mean goodput ratio " << meanGoodput << '\n';
    }
    return oss.str();
}

// ----------------------------------------------------------------- server

MultiStreamServer::MultiStreamServer(const ServeParams& params,
                                     BatchEngine& engine)
    : MultiStreamServer(params, engine, ShardTag{}, 0)
{
    if (params.streams < 1)
        fatal("MultiStreamServer: need at least one stream");
    for (int i = 0; i < params.streams; ++i) {
        StreamParams sp = params.stream;
        if (params.stagger)
            sp.phaseMs = sp.framePeriodMs * i / params.streams;
        const int slot =
            registry_.addStream(sp, params.governor, params.slo);
        tokens_.push_back(
            registry_.stream(slot).acquireOwnership(shardId_));
        txSeen_.push_back(0);
    }
    // One flight ring per stream so a post-mortem isolates the
    // misbehaving vehicle's recent history.
    obs::flight().ensureStreams(params.streams);
}

MultiStreamServer::MultiStreamServer(const ServeParams& params,
                                     BatchEngine& engine, ShardTag,
                                     int shardId)
    : params_(params), engine_(engine), scheduler_(params.batch),
      admission_(params.admission, registry_),
      postRng_(params.seed ^ 0xa5a5a5a5a5a5a5a5ull),
      shardId_(shardId)
{
    // Empty shard: the fleet imports streams and ensures flight
    // rings for the whole fleet-global stream space itself.
}

double
MultiStreamServer::samplePost()
{
    return params_.postMeanMs *
           postRng_.lognormal(-0.5 * params_.postJitterSigma *
                                  params_.postJitterSigma,
                              params_.postJitterSigma);
}

double
MultiStreamServer::engineBacklogMs(double nowMs) const
{
    return std::max(0.0, engineFreeAtMs_ - nowMs) +
           scheduler_.pendingCostScale() *
               admission_.expectedCostMs();
}

StreamState&
MultiStreamServer::ownedStream(int slot, const char* what)
{
    StreamState* s = registry_.find(slot);
    if (!s)
        fatal(std::string("MultiStreamServer: ") + what +
              " touched vacant slot " + std::to_string(slot) +
              " (stream migrated away with events pending?)");
    s->assertOwnership(tokens_[static_cast<std::size_t>(slot)], what);
    return *s;
}

// Governor transitions can land on any stream (pressure escalation
// picks the most-slack one), so the flight diff scans every stream;
// the no-transition case is one size compare each.
void
MultiStreamServer::emitTransitions(double now)
{
    auto& fl = obs::flight();
    if (!fl.enabled())
        return;
    for (std::size_t i = 0; i < registry_.size(); ++i) {
        const StreamState* s = registry_.find(static_cast<int>(i));
        if (!s)
            continue;
        const auto& tx = s->governor.transitions();
        auto& seen = txSeen_[i];
        for (; seen < tx.size(); ++seen) {
            const auto& t = tx[seen];
            fl.recordTransition(s->id, t.reason.c_str(), t.frame, now,
                                static_cast<int>(t.from),
                                static_cast<int>(t.to),
                                pipeline::modeName(t.from),
                                pipeline::modeName(t.to));
            if (t.to == pipeline::OperatingMode::SafeStop)
                fl.noteSafeStop(s->id, t.frame, now);
        }
    }
}

void
MultiStreamServer::promote(const FrameTicket& ticket, double now)
{
    StreamState& s = ownedStream(ticket.stream, "promote");
    const AdmitDecision d = admission_.decide(
        ticket, now, engineBacklogMs(now), params_.batch.maxWaitMs);
    auto& fl = obs::flight();
    if (fl.enabled()) {
        const char* action = d.action == AdmitAction::Shed
                                 ? "shed"
                                 : d.action == AdmitAction::Coast
                                       ? "coast"
                                       : "admit";
        fl.recordAdmission(s.id, action, ticket.seq, now, d.costScale,
                           d.degraded);
    }
    switch (d.action) {
    case AdmitAction::Shed:
        ++s.stats.shedAdmission;
        if (observer_)
            observer_->onShed(s, now, "admission");
        break;
    case AdmitAction::Coast: {
        ++s.stats.coasted;
        s.inFlight = true;
        events_.push(Event{now + params_.coastMs,
                           EventKind::Completion, ticket.stream,
                           ticket.seq, {ticket.arrivalMs, false}});
        break;
    }
    case AdmitAction::Admit: {
        ++s.stats.admitted;
        if (d.degraded)
            ++s.stats.degraded;
        InferenceRequest req;
        req.ticket = ticket;
        req.enqueueMs = now;
        req.deadlineMs = ticket.deadlineMs(s.params);
        req.costScale = d.costScale;
        req.degraded = d.degraded;
        scheduler_.enqueue(req);
        s.inFlight = true;
        break;
    }
    }
}

// A frame shed after admission (it queued too long): undo its admit
// accounting and free the stream for its next waiter.
void
MultiStreamServer::shedLate(const InferenceRequest& req, double now)
{
    StreamState& s = ownedStream(req.ticket.stream, "shedLate");
    --s.stats.admitted;
    if (req.degraded)
        --s.stats.degraded;
    ++s.stats.shedLate;
    obs::flight().recordAdmission(s.id, "shed_late", req.ticket.seq,
                                  now, req.costScale, req.degraded);
    if (observer_)
        observer_->onShed(s, now, "late");
    release(s, now);
}

// The stream's frame left the engine path: promote waiters until one
// is in flight again (a promoted frame may itself be shed).
void
MultiStreamServer::release(StreamState& s, double now)
{
    s.inFlight = false;
    while (!s.inFlight) {
        const auto next = s.queue.pop();
        if (!next)
            break;
        promote(*next, now);
    }
}

// Dispatch a batch if one is due; otherwise arrange a wake-up.
void
MultiStreamServer::maybeDispatch(double now)
{
    while (true) {
        if (engineFreeAtMs_ > now) {
            events_.wakeAt(engineFreeAtMs_, EventKind::EngineCheck);
            return;
        }
        const auto at = scheduler_.nextDispatchMs(now);
        if (!at)
            return;
        if (*at > now) {
            events_.wakeAt(*at, EventKind::EngineCheck);
            return;
        }
        auto batch = scheduler_.tryDispatch(now);
        if (!batch)
            return;
        // Late shed: the tail guarantee is enforced here, at the
        // last decision point before engine time is spent. A frame
        // stays in the batch only if even a risk-inflated
        // (contention-spiked) batch cost meets its deadline;
        // anything else would either miss anyway or drag the whole
        // batch's completion past its co-batched peers'.
        const double risk = params_.admission.riskFactor;
        const double perUnit = admission_.expectedCostMs();
        for (bool changed = params_.admission.enabled; changed;) {
            changed = false;
            const double worstDoneMs =
                now + risk * perUnit * batch->totalCostScale() +
                params_.postMeanMs + params_.admission.headroomMs;
            for (std::size_t i = 0; i < batch->items.size(); ++i) {
                if (worstDoneMs <= batch->items[i].deadlineMs)
                    continue;
                shedLate(batch->items[i], now);
                batch->items.erase(batch->items.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                changed = true;
                break;
            }
        }
        if (batch->items.empty())
            continue; // everything was too late; try the rest.
        const double cost = engine_.runBatch(*batch);
        admission_.onBatchExecuted(cost, batch->totalCostScale());
        // Keep the batcher's dispatch-by bound in step with the
        // measured cost: reserve worst-case inference + post +
        // headroom.
        scheduler_.setLatestStartSlackMs(
            risk * admission_.expectedCostMs() + params_.postMeanMs +
            params_.admission.headroomMs);
        engineFreeAtMs_ = now + cost;
        for (const auto& item : batch->items) {
            const double post = samplePost();
            events_.push(Event{now + cost + post,
                               EventKind::Completion,
                               item.ticket.stream, item.ticket.seq,
                               {item.ticket.arrivalMs, true}});
        }
        events_.wakeAt(engineFreeAtMs_, EventKind::EngineCheck);
        return;
    }
}

void
MultiStreamServer::processEvent(const Event& ev)
{
    const double now = ev.timeMs;
    switch (ev.kind) {
    case EventKind::Arrival: {
        StreamState& s = ownedStream(ev.id, "arrival");
        ++s.stats.arrived;
        if (framesPerStream_ > 0 && ev.seq + 1 < framesPerStream_)
            injectArrival(ev.id, ev.seq + 1,
                          now + s.params.framePeriodMs);
        admission_.evaluatePressure(globalArrivals_++,
                                    engineBacklogMs(now));
        const FrameTicket ticket{ev.id, ev.seq, now};
        if (s.inFlight) {
            if (const auto evicted = s.queue.push(ticket)) {
                ++s.stats.shedStale;
                if (observer_)
                    observer_->onShed(s, now, "stale");
            }
        } else {
            promote(ticket, now);
        }
        break;
    }
    case EventKind::Completion: {
        StreamState& s = ownedStream(ev.id, "completion");
        const FrameData& d = ev.payload;
        const double latency = now - d.arrivalMs;
        admission_.onCompletion(FrameTicket{ev.id, ev.seq, d.arrivalMs},
                                latency, d.engineServed);
        auto& fl = obs::flight();
        if (fl.enabled())
            fl.recordSpan(s.id, d.engineServed ? "serve" : "coast",
                          ev.seq, d.arrivalMs, latency);
        if (d.engineServed) {
            ++s.stats.completed;
            admittedRec_.record(latency);
            if (latency > s.params.deadlineMs) {
                ++s.stats.missedDeadline;
                fl.noteDeadlineMiss(s.id, ev.seq, now, latency,
                                    latency - s.params.deadlineMs);
            } else {
                ++onTimeServed_;
            }
        } else if (latency <= s.params.deadlineMs) {
            ++onTimeCoasted_;
        }
        if (observer_)
            observer_->onCompletion(s, latency, d.engineServed);
        release(s, now);
        break;
    }
    case EventKind::EngineCheck:
        break;
    }
    maybeDispatch(now);
    emitTransitions(now);
}

void
MultiStreamServer::injectArrival(int slot, std::int64_t seq,
                                 double timeMs)
{
    if (!registry_.find(slot))
        fatal("MultiStreamServer: injectArrival into vacant slot " +
              std::to_string(slot));
    events_.push(
        Event{timeMs, EventKind::Arrival, slot, seq, {timeMs, false}});
}

bool
MultiStreamServer::migratable(int slot) const
{
    const StreamState* s = registry_.find(slot);
    return s && !s->inFlight && s->queue.empty();
}

std::unique_ptr<StreamState>
MultiStreamServer::exportStream(int slot)
{
    if (!migratable(slot))
        fatal("MultiStreamServer: exportStream(" +
              std::to_string(slot) +
              "): stream is absent or not quiescent");
    StreamState& s = registry_.stream(slot);
    s.releaseOwnership(tokens_[static_cast<std::size_t>(slot)]);
    tokens_[static_cast<std::size_t>(slot)] = OwnershipToken{};
    txSeen_[static_cast<std::size_t>(slot)] = 0;
    return registry_.extract(slot);
}

int
MultiStreamServer::importStream(std::unique_ptr<StreamState> stream)
{
    if (!stream)
        fatal("MultiStreamServer: importStream of null stream");
    StreamState& ref = *stream;
    const int slot = registry_.adopt(std::move(stream));
    const auto idx = static_cast<std::size_t>(slot);
    if (idx >= tokens_.size()) {
        tokens_.resize(idx + 1);
        txSeen_.resize(idx + 1, 0);
    }
    tokens_[idx] = ref.acquireOwnership(shardId_);
    // The stream's governor history was already emitted to flight by
    // the previous owner; only new transitions are ours to emit.
    txSeen_[idx] = ref.governor.transitions().size();
    return slot;
}

bool
MultiStreamServer::escalateStream(int slot, std::int64_t frame,
                                  pipeline::OperatingMode cap,
                                  const char* reason)
{
    StreamState& s = ownedStream(slot, "escalate");
    const pipeline::OperatingMode mode = s.governor.mode();
    if (mode >= cap)
        return false;
    s.governor.requestEscalation(
        frame,
        static_cast<pipeline::OperatingMode>(static_cast<int>(mode) +
                                             1),
        reason);
    return true;
}

ServeReport
MultiStreamServer::run(std::int64_t framesPerStream)
{
    framesPerStream_ = framesPerStream;
    for (int i = 0; i < params_.streams; ++i)
        injectArrival(i, 0, registry_.stream(i).params.phaseMs);
    drain();
    return buildReport();
}

ServeReport
MultiStreamServer::buildReport()
{
    ServeReport report;
    report.streamSlo.reserve(registry_.size());
    for (std::size_t i = 0; i < registry_.size(); ++i) {
        StreamState* stream = registry_.find(static_cast<int>(i));
        if (!stream)
            continue;
        stream->slo.refresh();
        report.streamSlo.push_back(stream->slo.snapshot());
        const StreamStats& st = stream->stats;
        report.framesArrived += st.arrived;
        report.framesAdmitted += st.admitted;
        report.framesDegraded += st.degraded;
        report.framesCoasted += st.coasted;
        report.framesShed +=
            st.shedAdmission + st.shedStale + st.shedLate;
        report.deadlineMisses += st.missedDeadline;
        const auto& inMode = stream->governor.framesInMode();
        for (std::size_t m = 0; m < pipeline::kOperatingModeCount;
             ++m)
            report.framesInMode[m] += inMode[m];
    }
    report.admittedLatency = admittedRec_.summary();
    const double lastMs = events_.lastMs();
    report.durationMs = lastMs;
    if (lastMs > 0) {
        report.goodputFps = 1000.0 * onTimeServed_ / lastMs;
        report.totalGoodputFps =
            1000.0 * (onTimeServed_ + onTimeCoasted_) / lastMs;
    }
    if (report.framesArrived > 0)
        report.shedRate = static_cast<double>(report.framesShed) /
                          report.framesArrived;
    report.batches = scheduler_.batchesFormed();
    report.meanBatchSize = scheduler_.meanBatchSize();
    report.meanBatchWaitMs = scheduler_.meanWaitMs();
    report.pressureEscalations = admission_.pressureEscalations();

    publishMetrics();
    return report;
}

void
MultiStreamServer::publishMetrics()
{
    // Per-stream labeled metrics land in the server-local registry;
    // one merge at the end of the run touches the global lock once
    // instead of once per frame. Labels use the fleet-global stream
    // id, so a migrated stream keeps one metric series across shards
    // (the per-shard series are distinguished by metricPrefix).
    const std::string& prefix = params_.metricPrefix;
    for (std::size_t i = 0; i < registry_.size(); ++i) {
        const StreamState* sp = registry_.find(static_cast<int>(i));
        if (!sp)
            continue;
        const StreamState& s = *sp;
        const StreamStats& st = s.stats;
        const std::string id = std::to_string(s.id);
        const auto name = [&](const char* metric) {
            return obs::labeled(prefix + metric, "stream", id);
        };
        const std::pair<const char*, std::int64_t> counts[] = {
            {".frames_arrived", st.arrived},
            {".frames_admitted", st.admitted},
            {".frames_shed",
             st.shedAdmission + st.shedStale + st.shedLate},
            {".deadline_misses", st.missedDeadline}};
        for (const auto& [metric, n] : counts)
            local_.counter(name(metric))
                .add(static_cast<std::uint64_t>(n));
        local_.histogram(name(".latency_ms")).mergeFrom(s.servedLatency);
        const SloSnapshot& slo = s.slo.snapshot();
        const std::pair<const char*, double> gauges[] = {
            {".slack_ms", s.slackMs()},
            {".slo.p50_ms", slo.p50Ms},
            {".slo.p99_ms", slo.p99Ms},
            {".slo.p999_ms", slo.p999Ms},
            {".slo.burn_rate", slo.burnRate},
            {".slo.goodput_ratio", slo.goodputRatio},
            {".slo.miss_rate", slo.missRate}};
        for (const auto& [metric, v] : gauges)
            local_.gauge(name(metric)).set(v);
    }
    if (obs::metricsEnabled())
        obs::metrics().merge(local_);
}

} // namespace ad::serve
