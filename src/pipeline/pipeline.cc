#include "pipeline/pipeline.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"
#include "common/time.hh"
#include "obs/flight.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sensors/corruption.hh"

namespace ad::pipeline {

namespace {

/**
 * Fan the pipeline-wide nn.threads / nn.precision / nn.fuse /
 * nn.arena overrides out to the engines.
 */
PipelineParams
applyNnOverrides(PipelineParams p)
{
    if (p.nnThreads != 0) {
        p.detector.threads = p.nnThreads;
        p.trackerPool.tracker.threads = p.nnThreads;
        p.localizer.threads = p.nnThreads;
    }
    if (p.nnPrecision != nn::Precision::Fp32) {
        p.detector.precision = p.nnPrecision;
        p.trackerPool.tracker.precision = p.nnPrecision;
    }
    p.detector.fuse = p.nnFuse;
    p.trackerPool.tracker.fuse = p.nnFuse;
    p.detector.arena = p.nnArena;
    p.trackerPool.tracker.arena = p.nnArena;
    return p;
}

using obs::Stage;

/** The root stage: sensor corruption, not one of the measured five. */
constexpr const char* kSenseStage = "SENSE";

/**
 * Flight-recorder track of each stage (by Stage) within its frame's
 * lane: the DET->TRA chain on track 1 and LOC on track 2, since the
 * parallel perception branches partially overlap on the shared
 * timeline; FUSION and MOTPLAN share track 0 with the FRAME span.
 * Lane l owns tracks 3l .. 3l+2; frames that overlap in time sit on
 * different lanes (see commitJob).
 */
constexpr int kFlightTrack[obs::kStageCount] = {1, 1, 2, 0, 0};
constexpr int kFlightTracksPerLane = 3;

/** The `pipeline.<stage>_ms` histogram name of each stage. */
const std::string&
stageMetricName(Stage stage)
{
    static const auto names = [] {
        std::array<std::string, obs::kStageCount> n;
        for (const Stage s : obs::kStages) {
            std::string lower = obs::stageName(s);
            for (char& c : lower)
                c = static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            n[static_cast<std::size_t>(s)] = "pipeline." + lower + "_ms";
        }
        return n;
    }();
    return names[static_cast<std::size_t>(stage)];
}

} // namespace

Pipeline::Pipeline(const slam::PriorMap* map,
                   const sensors::Camera* camera,
                   const planning::RoadGraph* roadGraph,
                   const PipelineParams& params)
    : params_(applyNnOverrides(params)), camera_(camera),
      detector_(params_.detector), trackerPool_(params_.trackerPool),
      localizer_(map, camera, params_.localizer), fusion_(camera),
      controller_(params_.control), deadline_(params_.deadline)
{
    if (roadGraph)
        mission_.emplace(roadGraph, params_.mission);
    if (params_.faults.enabled)
        faults_.emplace(params_.faults);
    if (params_.governor.enabled) {
        governor_.emplace(params_.governor);
        // Warm standby detector at degraded scale: built now so
        // DEGRADED-mode frames never pay construction cost (the
        // tracker-pool warm-start rule, Section 3.1.2).
        degradedDetector_.emplace(params_.detector.scaledInput(
            params_.governor.degradedDetScale));
    }
    graph_ = buildGraph();
    jobs_ = std::vector<FrameJob>(1);
    if (params_.async)
        setupExecutor();
}

void
Pipeline::reset(const Pose2& pose, const Vec2& velocity,
                const Vec2& destination)
{
    if (exec_) {
        exec_->drain();
        exec_.reset();
        std::lock_guard<std::mutex> lock(readyMutex_);
        ready_.clear();
    }
    pendingOdom_.clear();
    localizer_.reset(pose, velocity);
    if (mission_)
        mission_->plan(pose.pos, destination);
    controller_.reset();
    time_ = 0;
    flightLaneFreeMs_.clear();
    lastLocPose_ = pose;
    lastLocVelocity_ = velocity;
    lastDetections_.clear();
    detStaleFrames_ = 0;
    locStaleFrames_ = 0;
    if (params_.async)
        setupExecutor();
}

void
Pipeline::feedOdometry(const sensors::OdometryReading& odometry)
{
    if (exec_) {
        // Applied by the next submitted frame's LOC stage, in frame
        // order, so async runs see the readings exactly where a
        // serial run would.
        pendingOdom_.push_back(odometry);
        return;
    }
    localizer_.feedOdometry(odometry);
}

FrameGraph
Pipeline::buildGraph()
{
    // The Figure 1 dataflow: DET and LOC consume the (possibly
    // corrupted) frame in parallel, TRA consumes DET, FUSION joins
    // TRA with LOC, and planning consumes the fused scene plus the
    // pose. Each stage fn returns its virtual cost so the executor's
    // timeline composes exactly like endToEndMs(). Declaration order
    // fixes the topological order, and so the serial stage order.
    FrameGraph g;
    g.addStage(kSenseStage, {}, [this](std::int64_t f) {
        stageSense(jobAt(f));
        return 0.0;
    });
    // The stage wrapper: run the body, add this stage's injected
    // spike, and write the frame's stage record.
    const auto add = [&](Stage stage, std::vector<std::string> inputs,
                         double (Pipeline::*body)(FrameJob&)) {
        stageIds_[static_cast<std::size_t>(stage)] = g.addStage(
            obs::stageName(stage), std::move(inputs),
            [this, stage, body](std::int64_t f) {
                FrameJob& job = jobAt(f);
                const double ms =
                    (this->*body)(job) +
                    job.fault.spikeMs[static_cast<std::size_t>(stage)];
                job.out.latencies[stage] = ms;
                return ms;
            });
    };
    const auto name = [](Stage s) { return std::string(obs::stageName(s)); };
    add(Stage::Det, {kSenseStage}, &Pipeline::stageDet);
    add(Stage::Loc, {kSenseStage}, &Pipeline::stageLoc);
    add(Stage::Tra, {kSenseStage, name(Stage::Det)}, &Pipeline::stageTra);
    add(Stage::Fusion, {name(Stage::Tra), name(Stage::Loc)},
        &Pipeline::stageFusion);
    add(Stage::MotPlan, {name(Stage::Fusion), name(Stage::Loc)},
        &Pipeline::stagePlan);
    if (const auto err = g.validate())
        panic("pipeline stage graph: ", *err);
    return g;
}

Pipeline::FrameJob&
Pipeline::startJob(std::int64_t f, double dt, double egoSpeed,
                   const FramePlan& plan)
{
    FrameJob& job = jobAt(f);
    job = FrameJob{};
    job.id = frameIndex_++;
    job.dt = dt;
    job.egoSpeed = egoSpeed;
    job.timeS = time_;
    job.fault = faults_ ? faults_->planFrame() : FaultPlan{};
    job.plan = plan;
    job.out.frameId = job.id;
    job.out.mode = plan.mode;
    job.out.frameDropped = job.fault.dropFrame;
    return job;
}

void
Pipeline::setupExecutor()
{
    depth_ = std::max(1, params_.asyncDepth);
    jobs_ = std::vector<FrameJob>(static_cast<std::size_t>(depth_));
    planQueue_.clear();
    // Pre-stage the first `depth` plans from the governor's current
    // (fully observed, nothing in flight) state; commits keep the
    // queue topped up from then on.
    if (governor_)
        for (int i = 0; i < depth_; ++i)
            planQueue_.push_back(governor_->plan(frameIndex_ + i));

    FrameGraphExecutor::Params ep;
    ep.depth = depth_;
    ep.scheduleSeed = params_.scheduleSeed;
    exec_ = std::make_unique<FrameGraphExecutor>(
        graph_, ep,
        // Admission (submit order, under the executor lock): draw the
        // frame's fault plan and pop its staged governor plan -- the
        // seeded draws happen in frame order whatever the workers do.
        [this](std::int64_t execFrame) {
            FramePlan plan;
            if (governor_) {
                plan = planQueue_.front();
                planQueue_.pop_front();
            }
            FrameJob& job =
                startJob(execFrame, pendingDt_, pendingSpeed_, plan);
            job.image = *pendingImage_;
            job.frame = &job.image;
            job.odom = std::move(pendingOdom_);
            pendingOdom_.clear();
            if (obs::tracer().enabled())
                job.traceStartUs = obs::tracer().nowUs();
        },
        // Commit (frame order, under the executor lock): the shared
        // epilogue plus staging the plan for frame id + depth.
        [this](std::int64_t execFrame,
               const FrameGraphExecutor::FrameTiming& timing) {
            FrameJob& job = jobAt(execFrame);
            // No TraceSpan encloses an async frame (stages record
            // their own spans from pool threads): emit the wall-clock
            // admission-to-commit FRAME span here instead.
            auto& tracerRef = obs::tracer();
            if (tracerRef.enabled())
                tracerRef.record("FRAME", "frame", job.traceStartUs,
                                 tracerRef.nowUs() - job.traceStartUs,
                                 job.id);
            commitJob(job, timing);
            // Stage the governor plan for the frame `depth` ahead,
            // computed with exactly the feedback available now.
            if (governor_)
                planQueue_.push_back(governor_->plan(job.id + depth_));
            std::lock_guard<std::mutex> lock(readyMutex_);
            ready_.push_back(std::move(job.out));
        });
}

FrameOutput
Pipeline::processFrame(const Image& image, double dt, double egoSpeed)
{
    time_ += dt;
    const std::int64_t id = frameIndex_;
    auto& tracerRef = obs::tracer();
    if (tracerRef.enabled())
        tracerRef.setFrame(id);
    obs::TraceSpan frameSpan(tracerRef, "FRAME", "frame", id);

    // Fault plan for this frame (a fixed number of seeded draws) and
    // the governor's actuation plan. With both subsystems disabled
    // this degenerates to "run everything", the pre-governor flow.
    FrameJob& job = startJob(id, dt, egoSpeed,
                             governor_ ? governor_->plan(id) : FramePlan{});
    job.frame = &image;
    commitJob(job, FrameGraphExecutor::runInline(graph_, id,
                                                 job.timeS * 1000.0));
    return std::move(job.out);
}

std::vector<FrameOutput>
Pipeline::submitFrame(const Image& image, double dt, double egoSpeed)
{
    std::vector<FrameOutput> outs;
    if (!exec_) {
        outs.push_back(processFrame(image, dt, egoSpeed));
        return outs;
    }
    time_ += dt;
    pendingImage_ = &image;
    pendingDt_ = dt;
    pendingSpeed_ = egoSpeed;
    exec_->submit(time_ * 1000.0);
    std::lock_guard<std::mutex> lock(readyMutex_);
    while (!ready_.empty()) {
        outs.push_back(std::move(ready_.front()));
        ready_.pop_front();
    }
    return outs;
}

std::vector<FrameOutput>
Pipeline::drainAsync()
{
    std::vector<FrameOutput> outs;
    if (!exec_)
        return outs;
    exec_->drain();
    std::lock_guard<std::mutex> lock(readyMutex_);
    while (!ready_.empty()) {
        outs.push_back(std::move(ready_.front()));
        ready_.pop_front();
    }
    return outs;
}

void
Pipeline::stageSense(FrameJob& job)
{
    // Sensor corruption reaches the engines through the pixels; the
    // frame is copied only when a corruption fault actually fired.
    if (!job.fault.dropFrame &&
        (job.fault.blackout || job.fault.noiseSigma > 0)) {
        job.corrupted = *job.frame;
        if (job.fault.blackout) {
            sensors::blackout(job.corrupted);
        } else {
            Rng noiseRng(job.fault.noiseSeed);
            sensors::addPixelNoise(job.corrupted, noiseRng,
                                   job.fault.noiseSigma);
        }
        job.frame = &job.corrupted;
    }
}

double
Pipeline::stageDet(FrameJob& job)
{
    // --- (1a) Object detection. ---
    FrameOutput& out = job.out;
    const int maxStale = params_.governor.maxStaleFrames;
    const bool wantDet = job.plan.runDet && !job.fault.dropFrame;
    if (wantDet && !job.fault.detFail) {
        obs::TraceSpan span(obs::tracer(), obs::stageName(Stage::Det));
        detect::YoloDetector& det =
            job.plan.degradedDet && degradedDetector_
                ? *degradedDetector_
                : detector_;
        out.detections = det.detect(*job.frame, &job.detTimings);
        out.detRan = true;
        lastDetections_ = out.detections;
        detStaleFrames_ = 0;
    } else if (wantDet) {
        // Transient DET failure: reuse the last good detections while
        // they are fresh enough (timeout-with-fallback).
        ++detStaleFrames_;
        if (detStaleFrames_ <= maxStale) {
            out.detections = lastDetections_;
            out.detFellBack = true;
        }
    }
    return job.detTimings.totalMs;
}

double
Pipeline::stageLoc(FrameJob& job)
{
    // --- (1b) Localization (logically parallel with DET). ---
    FrameOutput& out = job.out;
    for (const auto& odo : job.odom)
        localizer_.feedOdometry(odo);
    if (!job.fault.dropFrame && !job.fault.locFail) {
        obs::TraceSpan span(obs::tracer(), obs::stageName(Stage::Loc));
        out.localization = localizer_.localize(*job.frame, job.dt);
        if (out.localization.ok) {
            if (job.dt > 0)
                lastLocVelocity_ =
                    (out.localization.pose.pos - lastLocPose_.pos) *
                    (1.0 / job.dt);
            lastLocPose_ = out.localization.pose;
            locStaleFrames_ = 0;
        }
    } else {
        // LOC never ran: dead-reckon from the last good pose under
        // the bounded-staleness contract; blowing the bound forces
        // SAFE_STOP at commit (docs/OPERATING_MODES.md).
        lastLocPose_.pos += lastLocVelocity_ * job.dt;
        out.localization.pose = lastLocPose_;
        out.localization.ok = false;
        out.localization.lost = true;
        out.locFellBack = true;
        ++locStaleFrames_;
        if (governor_ &&
            locStaleFrames_ > params_.governor.maxStaleFrames)
            job.locStaleExceeded = true;
    }
    return out.localization.timings.totalMs;
}

double
Pipeline::stageTra(FrameJob& job)
{
    // --- (1c) Object tracking. ---
    FrameOutput& out = job.out;
    {
        obs::TraceSpan span(obs::tracer(), obs::stageName(Stage::Tra));
        if (job.fault.dropFrame || job.fault.traFail) {
            trackerPool_.coastBlind(&job.traTimings);
            out.traCoasted = true;
        } else if (!job.plan.runDet) {
            // Deliberately skipped detection (interval stretching /
            // TRACKING_ONLY): GOTURN coasting without miss counting.
            trackerPool_.coast(*job.frame, &job.traTimings);
            out.traCoasted = true;
        } else {
            trackerPool_.update(*job.frame, out.detections,
                                &job.traTimings);
        }
    }
    out.tracks = trackerPool_.tracks();
    return job.traTimings.totalMs;
}

double
Pipeline::stageFusion(FrameJob& job)
{
    // --- (2) Fusion onto the world coordinate space. ---
    FrameOutput& out = job.out;
    {
        obs::TraceSpan span(obs::tracer(), obs::stageName(Stage::Fusion));
        out.scene = fusion_.fuse(out.tracks, out.localization.pose,
                                 job.dt, job.timeS);
    }
    return fusion_.lastFuseMs();
}

double
Pipeline::stagePlan(FrameJob& job)
{
    FrameOutput& out = job.out;

    // --- (4) Mission planning: only on deviation. ---
    if (mission_)
        out.missionReplanned =
            mission_->checkDeviation(out.localization.pose.pos);

    // --- (3) Motion planning on the fused scene. ---
    double planMs = 0;
    {
        obs::TraceSpan span(obs::tracer(), obs::stageName(Stage::MotPlan));
        Stopwatch watch;
        std::vector<planning::PredictedObstacle> obstacles;
        obstacles.reserve(out.scene.objects.size());
        for (const auto& obj : out.scene.objects)
            obstacles.push_back(
                {obj.worldPos, obj.worldVelocity, 1.6});
        out.trajectory = planning::planConformal(
            out.localization.pose, params_.laneCenterY, obstacles,
            params_.motionPlanner);
        planMs = watch.elapsedMs();
    }

    // --- (5) Vehicle control. ---
    planning::VehicleState state;
    state.pose = out.localization.pose;
    state.speed = job.egoSpeed;
    out.command = controller_.control(state, out.trajectory, job.dt);
    if (job.plan.safeStop) {
        // SAFE_STOP actuation: hold the wheel straight and brake at
        // the controller's limit until the governor recovers.
        out.command.steering = 0.0;
        out.command.acceleration = -params_.control.maxBrake;
    }
    return planMs;
}

void
Pipeline::commitJob(FrameJob& job,
                    const FrameGraphExecutor::FrameTiming& timing)
{
    FrameOutput& out = job.out;
    const obs::FrameLatencySample& lat = out.latencies;
    const std::int64_t frameId = job.id;

    // Bounded-staleness escalation surfaced by the LOC stage; raised
    // here so the transition lands before this frame's observe(),
    // exactly where the serial flow raised it.
    if (governor_ && job.locStaleExceeded)
        governor_->forceSafeStop(frameId, "stale:LOC");

    cycles_.detDnnMs += job.detTimings.dnnMs;
    cycles_.detOtherMs += job.detTimings.decodeMs;
    cycles_.locFeMs += out.localization.timings.feMs;
    cycles_.locOtherMs += out.localization.timings.totalMs -
                          out.localization.timings.feMs;
    cycles_.traDnnMs += job.traTimings.tracker.dnnMs;
    cycles_.traOtherMs +=
        job.traTimings.totalMs - job.traTimings.tracker.dnnMs;

    const double e2e = lat.endToEndMs();
    out.pipelinedMs = timing.commitMs - timing.arrivalMs;
    for (const Stage s : obs::kStages)
        stageRec_[static_cast<std::size_t>(s)].record(lat[s]);
    e2eRec_.record(e2e);
    pipelinedRec_.record(out.pipelinedMs);

    // Deadline watchdog: every frame, whatever the obs switches say
    // (observe() is a few comparisons and mutates nothing the engines
    // read). Injected virtual spikes are included in the sample, so
    // the watchdog and governor see faults exactly as they would see
    // real stalls. Both consume the *composition* latency -- the
    // per-frame cost independent of pipelining -- so their decisions
    // are identical across execution modes.
    deadline_.observe(frameId, lat);
    if (governor_)
        governor_->observe(frameId, lat);

    // Flight recorder: the frame's history on the pipeline's virtual
    // timeline (ms of simulated time), so a deterministic run yields
    // a deterministic post-mortem. Purely observational -- nothing
    // the engines read is touched. Both modes emit the same six spans
    // per frame (event conservation) at the stage times in @p timing:
    // the executor's pipelined schedule, or the unloaded layout.
    auto& fl = obs::flight();
    if (fl.enabled()) {
        const double t0 = job.timeS * 1000.0;
        const bool perfOn = obs::tracer().perfSpansEnabled();
        const auto span = [&](const char* name, double start, double dur,
                              int track) {
            fl.recordSpan(0, name, frameId, start, dur, track);
            // Re-emit the wall-clock perf delta sampled over this
            // stage's trace span at the stage's virtual position.
            if (perfOn)
                if (const obs::PerfDelta* d = obs::latestPerfDelta(name))
                    fl.recordPerf(0, name, frameId, start, dur, *d);
        };
        // Lowest lane free by this frame's admission: async frames
        // and serial frames that outlast the camera period overlap,
        // but no two frames on one lane do, so every track nests.
        auto& lanes = flightLaneFreeMs_;
        auto lane = std::find_if(lanes.begin(), lanes.end(), [&](double t) {
            return t <= timing.admitMs;
        });
        if (lane == lanes.end())
            lane = lanes.insert(lane, 0.0);
        *lane = timing.commitMs;
        const int base = kFlightTracksPerLane *
                         static_cast<int>(lane - lanes.begin());
        span("FRAME", timing.admitMs, timing.commitMs - timing.admitMs, base);
        for (const Stage s : obs::kStages) {
            const auto i = static_cast<std::size_t>(s);
            const auto& st =
                timing.stages[static_cast<std::size_t>(stageIds_[i])];
            span(obs::stageName(s), st.startMs, st.durMs,
                 base + kFlightTrack[i]);
        }
        fl.recordMetric(0, "e2e_ms", frameId, t0, e2e);
        if (job.fault.dropFrame)
            fl.noteFault(0, "drop_frame", frameId, t0);
        if (job.fault.detFail)
            fl.noteFault(0, "det_fail", frameId, t0);
        if (job.fault.locFail)
            fl.noteFault(0, "loc_fail", frameId, t0);
        if (job.fault.traFail)
            fl.noteFault(0, "tra_fail", frameId, t0);
        if (job.fault.blackout)
            fl.noteFault(0, "blackout", frameId, t0);
        if (job.fault.noiseSigma > 0)
            fl.noteFault(0, "pixel_noise", frameId, t0);
        if (governor_) {
            const auto& tx = governor_->transitions();
            for (; govTransitionsSeen_ < tx.size();
                 ++govTransitionsSeen_) {
                const auto& t = tx[govTransitionsSeen_];
                fl.recordTransition(0, t.reason.c_str(), t.frame, t0,
                                    static_cast<int>(t.from),
                                    static_cast<int>(t.to),
                                    modeName(t.from), modeName(t.to));
                if (t.to == OperatingMode::SafeStop)
                    fl.noteSafeStop(0, t.frame, t0);
            }
        }
        if (e2e > params_.deadline.budgetMs)
            fl.noteDeadlineMiss(0, frameId, t0 + e2e, e2e,
                                e2e - params_.deadline.budgetMs);
    }

    if (obs::metricsEnabled()) {
        auto& reg = obs::metrics();
        reg.counter("pipeline.frames").add();
        for (const Stage s : obs::kStages)
            reg.histogram(stageMetricName(s)).record(lat[s]);
        reg.histogram("pipeline.e2e_ms").record(e2e);
        reg.histogram("pipeline.pipelined_ms").record(out.pipelinedMs);
        reg.counter("pipeline.mission_replans")
            .add(out.missionReplanned ? 1 : 0);
        reg.counter("pipeline.frames_dropped")
            .add(out.frameDropped ? 1 : 0);
        reg.counter("pipeline.det_skipped")
            .add(!job.plan.runDet ? 1 : 0);
        reg.counter("pipeline.det_fallback")
            .add(out.detFellBack ? 1 : 0);
        reg.counter("pipeline.loc_fallback")
            .add(out.locFellBack ? 1 : 0);
        reg.counter("pipeline.tra_coasted")
            .add(out.traCoasted ? 1 : 0);
    }
}

} // namespace ad::pipeline
