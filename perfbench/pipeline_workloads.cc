/**
 * @file
 * The vehicle-pipeline workload.
 *
 * urban_det_saturated: urban scenario at HHD, 416 DET input, async
 * pipeline at depth 2. Closed loop: submitFrame is called as soon as
 * it returns, so at most two frames are in flight, and latency runs
 * from the submitFrame call until the benchmark holds the output.
 *
 * The traced run replays the same frames serially through the
 * engines' public calls (detect, localize, update, fuse, plan) with
 * one span per call, once untraced and once traced.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "pipeline/pipeline.hh"
#include "planning/conformal.hh"
#include "sensors/scenario.hh"
#include "slam/mapping.hh"
#include "vision/orb.hh"
#include "workloads.hh"

namespace adbench {

namespace {

using namespace ad;

constexpr const char* kName = "urban_det_saturated";
constexpr int kDetInput = 416;    ///< DET network input edge (pixels).
constexpr double kDetWidth = 0.25; ///< DET channel-width multiplier.
constexpr int kDepth = 2;          ///< pipeline.depth.
/**
 * p75, which needs 40 frames: with one kernel thread per stage a 10 s
 * run commits 120-250 frames, so p90 (100 frames) would come and go
 * with the host's speed.
 */
constexpr double kTailPercentile = 75.0;
/**
 * Surveyed road (m): long enough that the frames a 10 s run can use
 * (up to kClosedLoopFps x 10 s x 1 m) never reach its end.
 */
constexpr double kRoadLength = 450.0;

constexpr double kDt = 0.1;           ///< 10 fps, the paper's floor.
constexpr double kDeadlineMs = 100.0; ///< the paper's latency limit.
/** Closed-loop frames rendered per measured second (an upper bound). */
constexpr int kClosedLoopFps = 40;
/** Frames the serial replay of the traced run covers at least. */
constexpr int kMinReplayFrames = 10;
/** Frames re-run on a fresh pipeline for the determinism check. */
constexpr int kRepeatFrames = 12;
/** Truth boxes smaller than this (pixels, either side) are not scored. */
constexpr double kMinTruthBoxPx = 8.0;
/**
 * Quality floors the outputs must meet: well outside the run-to-run
 * range (mean loc error ~0.1 m; recall 0.012-0.73 over 40-300
 * frames, the detector runs constructed rather than trained
 * weights), so they catch a broken engine, not a noisy one.
 */
constexpr double kMaxLocErrorM = 1.0;
constexpr double kMinDetRecall = 0.005;
/** Unattributed share of a stage span allowed by the reconciliation. */
constexpr double kMaxUnattributed = 0.05;
/** Unattributed time per call that is timer overhead, not a gap (ms). */
constexpr double kTimerFloorMs = 0.005;

/** The world, prior map and engine parameters of one run. */
struct World
{
    sensors::Scenario scenario;
    sensors::Camera camera{sensors::Resolution::HHD};
    slam::PriorMap map;
    pipeline::PipelineParams params;
};

std::unique_ptr<World>
buildWorld(std::uint64_t seed)
{
    auto world = std::make_unique<World>();
    Rng rng(seed);
    sensors::ScenarioParams sp;
    sp.roadLength = kRoadLength;
    world->scenario = sensors::makeUrbanScenario(rng, sp);
    world->map = slam::buildPriorMap(world->scenario.world, world->camera, 1);

    pipeline::PipelineParams& p = world->params;
    p.detector.inputSize = kDetInput;
    p.detector.width = kDetWidth;
    p.trackerPool.tracker.cropSize = 32;
    p.trackerPool.tracker.width = 0.1;
    p.laneCenterY = world->scenario.world.road().laneCenter(1);
    p.motionPlanner.cruiseSpeed = world->scenario.ego.speed;
    // One kernel thread per stage, like the reference kernel that
    // brings times to reference speed: with kernels spread over every
    // core, the frame time also follows how many cores the host's
    // other tenants leave free, which the one-thread kernel does not
    // see (10-seed medians moved 0.13-0.27 between two passes).
    p.nnThreads = 1;
    p.async = true;
    p.asyncDepth = kDepth;
    return world;
}

std::unique_ptr<pipeline::Pipeline>
buildPipeline(const World& world)
{
    auto pipe = std::make_unique<pipeline::Pipeline>(
        &world.map, &world.camera, nullptr, world.params);
    const auto& sc = world.scenario;
    pipe->reset(sc.ego.pose, {sc.ego.speed, 0},
                {world.scenario.world.road().length - 10,
                 world.params.laneCenterY});
    return pipe;
}

/**
 * Drive the ego along its lane and render up to @p n frames, stopping
 * 20 m before the end of the surveyed road.
 */
std::vector<sensors::Frame>
renderFrames(const World& world, int n)
{
    std::vector<sensors::Frame> frames;
    frames.reserve(static_cast<std::size_t>(n));
    sensors::World w = world.scenario.world;
    Pose2 ego = world.scenario.ego.pose;
    for (int i = 0; i < n; ++i) {
        w.step(kDt);
        ego.pos.x += world.scenario.ego.speed * kDt;
        if (ego.pos.x > w.road().length - 20)
            break;
        frames.push_back(world.camera.render(w, ego));
    }
    return frames;
}

/** Digest of one frame's poses, detections, trajectory and command. */
std::uint64_t
frameDigest(const slam::LocResult& loc,
            const std::vector<detect::Detection>& dets,
            const planning::Trajectory& traj,
            const planning::ControlCommand& cmd)
{
    Digest d;
    d.addInt(loc.ok);
    d.addDouble(loc.pose.pos.x);
    d.addDouble(loc.pose.pos.y);
    d.addDouble(loc.pose.theta);
    for (const auto& det : dets) {
        d.addDouble(det.box.x);
        d.addDouble(det.box.y);
        d.addDouble(det.box.w);
        d.addDouble(det.box.h);
        d.addInt(static_cast<int>(det.cls));
        d.addDouble(det.confidence);
    }
    for (const auto& pt : traj.points) {
        d.addDouble(pt.pos.x);
        d.addDouble(pt.pos.y);
        d.addDouble(pt.heading);
        d.addDouble(pt.speed);
    }
    d.addDouble(cmd.steering);
    d.addDouble(cmd.acceleration);
    return d.value();
}

/** Localization error and detection recall, summed over frames. */
struct Quality
{
    double locErrSum = 0.0;
    std::int64_t frames = 0;
    std::int64_t truth = 0;
    std::int64_t found = 0;

    void
    add(const sensors::Frame& f, const slam::LocResult& loc,
        const std::vector<detect::Detection>& dets)
    {
        locErrSum += (loc.pose.pos - f.egoTruth.pos).norm();
        ++frames;
        for (const auto& t : f.truth) {
            if (t.box.w < kMinTruthBoxPx || t.box.h < kMinTruthBoxPx)
                continue;
            ++truth;
            for (const auto& d : dets)
                if (d.box.iou(t.box) >= 0.3) {
                    ++found;
                    break;
                }
        }
    }
    double locErrorM() const { return frames ? locErrSum / frames : 0.0; }
    double recall() const
    {
        return truth ? static_cast<double>(found) / truth : 0.0;
    }
};

/** What one pass of frames through the async pipeline produced. */
struct AsyncPass
{
    std::vector<double> latencyMs;       ///< by frame; NaN = no output.
    std::vector<double> scale;           ///< to reference speed, by frame.
    std::vector<std::uint64_t> digests;  ///< by frame.
    std::vector<double> submitMs, drainMs; ///< call durations.
    int submitted = 0;
    double windowMs = 0.0; ///< first submit to last output.
    double cpuMs = 0.0;
    double stageSumMs = 0.0;   ///< sum of the per-stage recorders.
    double pipelinedP50 = 0.0; ///< virtual-timeline p50 (ms).
    Quality quality;
};

double
recorderSum(const LatencyRecorder& r)
{
    return r.mean() * static_cast<double>(r.count());
}

/**
 * Run frames back to back (closed loop) through a fresh async
 * pipeline. Stops after @p seconds of wall time or @p maxFrames frames.
 * Given a probe, the submitting thread samples the host's speed
 * between submitFrame calls; a frame that completes during a sample
 * is collected after it, at most one kernel time late. The samples'
 * time is left out of the window.
 */
AsyncPass
runAsyncPass(const World& world, pipeline::Pipeline& pipe,
             const std::vector<sensors::Frame>& frames, double seconds,
             int maxFrames, Tracer& tracer, SpeedProbe* probe = nullptr)
{
    AsyncPass pass;
    const int limit = std::min<int>(maxFrames, static_cast<int>(frames.size()));
    pass.latencyMs.assign(static_cast<std::size_t>(limit), NAN);
    pass.scale.assign(static_cast<std::size_t>(limit), 1.0);
    pass.digests.assign(static_cast<std::size_t>(limit), 0);
    std::vector<double> startMs(static_cast<std::size_t>(limit), 0.0);
    const double egoSpeed = world.scenario.ego.speed;

    double lastOutMs = 0.0;
    const auto collect = [&](std::vector<pipeline::FrameOutput>&& outs) {
        const double t = nowMs();
        for (auto& out : outs) {
            const auto k = static_cast<std::size_t>(out.frameId);
            if (k >= pass.latencyMs.size())
                continue;
            pass.latencyMs[k] = t - startMs[k];
            if (probe)
                pass.scale[k] = probe->recentScale();
            pass.digests[k] = frameDigest(out.localization, out.detections,
                                          out.trajectory, out.command);
            pass.quality.add(frames[k], out.localization, out.detections);
            lastOutMs = t;
        }
    };

    const double probe0 = probe ? probe->spentMs() : 0.0;
    const double cpu0 = processCpuMs();
    const double t0 = nowMs();
    const double endMs = t0 + seconds * 1000.0;
    for (int k = 0; k < limit && nowMs() < endMs; ++k) {
        if (probe)
            probe->sampleIfDue();
        const double callMs = nowMs();
        const auto idx = static_cast<std::size_t>(k);
        startMs[idx] = callMs;
        {
            Tracer::Scope span(tracer, "pipeline.submit", k);
            collect(pipe.submitFrame(frames[idx].image, kDt, egoSpeed));
        }
        pass.submitMs.push_back(nowMs() - callMs);
        ++pass.submitted;
    }
    {
        const double d0 = nowMs();
        {
            Tracer::Scope span(tracer, "pipeline.drain", pass.submitted);
            collect(pipe.drainAsync());
        }
        pass.drainMs.push_back(nowMs() - d0);
    }
    pass.latencyMs.resize(static_cast<std::size_t>(pass.submitted));
    pass.digests.resize(static_cast<std::size_t>(pass.submitted));
    const double probeMs = probe ? probe->spentMs() - probe0 : 0.0;
    pass.windowMs = std::max(lastOutMs, t0) - t0 - probeMs;
    pass.cpuMs = processCpuMs() - cpu0 - probeMs;
    pass.stageSumMs = recorderSum(pipe.detLatency()) +
                      recorderSum(pipe.traLatency()) +
                      recorderSum(pipe.locLatency()) +
                      recorderSum(pipe.fusionLatency()) +
                      recorderSum(pipe.motPlanLatency());
    pass.pipelinedP50 = pipe.pipelinedLatency().percentile(0.5);
    return pass;
}


/** The pipeline's nn.* overrides, fanned out to the engines. */
pipeline::PipelineParams
engineParams(pipeline::PipelineParams p)
{
    p.detector.threads = p.nnThreads;
    p.trackerPool.tracker.threads = p.nnThreads;
    p.localizer.threads = p.nnThreads;
    p.detector.fuse = p.nnFuse;
    p.trackerPool.tracker.fuse = p.nnFuse;
    p.detector.arena = p.nnArena;
    p.trackerPool.tracker.arena = p.nnArena;
    return p;
}

/** Sums over a serial replay of the engines' public calls. */
struct Replay
{
    int frames = 0;
    double wallMs = 0.0;
    detect::DetectorTimings det;
    slam::LocalizerTimings loc;
    track::PoolTimings pool;
    int relocFrames = 0;
    std::int64_t matches = 0;
    std::int64_t inliers = 0;
    double detFlops = 0.0; ///< DET network FLOPs per forward.
    std::vector<std::uint64_t> digests;
    Quality quality;
};

/**
 * Replay frames serially through freshly built engines, the serial
 * pipeline's stage order (DET, LOC, TRA, FUSION, MOTPLAN + control),
 * with one span per call. Stops after @p maxFrames frames, or after
 * @p budgetMs of wall time (<= 0: no limit) once it has replayed
 * kMinReplayFrames, so a slow host shortens the replay but does not
 * starve it.
 */
Replay
replay(const World& world, const std::vector<sensors::Frame>& frames,
       int maxFrames, double budgetMs, Tracer& tracer)
{
    const pipeline::PipelineParams p = engineParams(world.params);
    const auto& sc = world.scenario;
    detect::YoloDetector det(p.detector);
    track::TrackerPool pool(p.trackerPool);
    slam::Localizer loc(&world.map, &world.camera, p.localizer);
    fusion::FusionEngine fusion(&world.camera);
    planning::VehicleController ctrl(p.control);
    loc.reset(sc.ego.pose, {sc.ego.speed, 0});

    Replay r;
    r.detFlops = static_cast<double>(det.profile().totalFlops());
    const int limit =
        std::min<int>(maxFrames, static_cast<int>(frames.size()));
    const double t0 = nowMs();
    double timeS = 0.0;
    for (int k = 0; k < limit; ++k) {
        if (budgetMs > 0 && k >= kMinReplayFrames &&
            nowMs() - t0 >= budgetMs)
            break;
        const sensors::Frame& f = frames[static_cast<std::size_t>(k)];
        timeS += kDt;
        std::vector<detect::Detection> dets;
        slam::LocResult lr;
        fusion::FusedScene scene;
        planning::Trajectory traj;
        planning::ControlCommand cmd;
        {
            Tracer::Scope frameSpan(tracer, "frame", k);
            {
                Tracer::Scope span(tracer, "detect.detect", k);
                dets = det.detect(f.image, &r.det);
            }
            {
                Tracer::Scope span(tracer, "slam.localize", k);
                lr = loc.localize(f.image, kDt);
            }
            {
                Tracer::Scope span(tracer, "track.update", k);
                pool.update(f.image, dets, &r.pool);
            }
            {
                Tracer::Scope span(tracer, "fusion.fuse", k);
                scene = fusion.fuse(pool.tracks(), lr.pose, kDt, timeS);
            }
            {
                Tracer::Scope span(tracer, "planning.plan", k);
                std::vector<planning::PredictedObstacle> obstacles;
                obstacles.reserve(scene.objects.size());
                for (const auto& obj : scene.objects)
                    obstacles.push_back(
                    {obj.worldPos, obj.worldVelocity, 1.6});
                traj = planning::planConformal(lr.pose, p.laneCenterY,
                                               obstacles, p.motionPlanner);
                planning::VehicleState state;
                state.pose = lr.pose;
                state.speed = sc.ego.speed;
                cmd = ctrl.control(state, traj, kDt);
            }
        }
        r.loc.feMs += lr.timings.feMs;
        r.loc.matchMs += lr.timings.matchMs;
        r.loc.solveMs += lr.timings.solveMs;
        r.loc.relocMs += lr.timings.relocMs;
        r.loc.loopMs += lr.timings.loopMs;
        r.loc.totalMs += lr.timings.totalMs;
        r.relocFrames += lr.relocalized ? 1 : 0;
        r.matches += lr.matches;
        r.inliers += lr.inliers;
        r.digests.push_back(frameDigest(lr, dets, traj, cmd));
        r.quality.add(f, lr, dets);
        ++r.frames;
    }
    r.wallMs = nowMs() - t0;
    return r;
}

/** Sums of two replays (digests and quality of the first). */
Replay
merged(const Replay& a, const Replay& b)
{
    Replay r = a;
    r.frames += b.frames;
    r.wallMs += b.wallMs;
    r.det.dnnMs += b.det.dnnMs;
    r.det.decodeMs += b.det.decodeMs;
    r.det.totalMs += b.det.totalMs;
    r.loc.feMs += b.loc.feMs;
    r.loc.matchMs += b.loc.matchMs;
    r.loc.solveMs += b.loc.solveMs;
    r.loc.relocMs += b.loc.relocMs;
    r.loc.loopMs += b.loc.loopMs;
    r.loc.totalMs += b.loc.totalMs;
    r.pool.tracker.dnnMs += b.pool.tracker.dnnMs;
    r.pool.tracker.otherMs += b.pool.tracker.otherMs;
    r.pool.tracker.totalMs += b.pool.tracker.totalMs;
    r.pool.associateMs += b.pool.associateMs;
    r.pool.totalMs += b.pool.totalMs;
    r.pool.trackerRuns += b.pool.trackerRuns;
    r.relocFrames += b.relocFrames;
    r.matches += b.matches;
    r.inliers += b.inliers;
    return r;
}

/** Index of the first frame whose digests differ, or -1. */
int
firstMismatch(const std::vector<std::uint64_t>& a,
              const std::vector<std::uint64_t>& b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return static_cast<int>(i);
    return -1;
}

/**
 * One setup: world, prior-map survey, and the measured pipeline
 * (network build, lowering, arena planning). A throwaway pipeline
 * first runs two frames so lazy process-wide state (worker pool,
 * first-touch pages) is warm before anything is timed.
 */
struct Built
{
    std::unique_ptr<World> world;
    std::unique_ptr<pipeline::Pipeline> pipe;
    std::vector<sensors::Frame> warmFrames;
};

Built
setUp(std::uint64_t seed)
{
    Built b;
    b.world = buildWorld(seed);
    b.warmFrames = renderFrames(*b.world, 2);
    {
        auto warm = buildPipeline(*b.world);
        for (const auto& f : b.warmFrames)
            warm->submitFrame(f.image, kDt, b.world->scenario.ego.speed);
        warm->drainAsync();
    }
    b.pipe = buildPipeline(*b.world);
    return b;
}

std::string
fmt(const char* f, double a, double b = 0, double c = 0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, f, a, b, c);
    return buf;
}

void
checkQuality(Result& res, const Quality& q, const char* what)
{
    res.check(q.frames > 0, std::string(what) + ": frames produced");
    res.check(q.locErrorM() <= kMaxLocErrorM,
              std::string(what) +
                  fmt(": loc_error_m %.3f <= %.2f", q.locErrorM(),
                      kMaxLocErrorM));
    res.check(q.recall() >= kMinDetRecall,
              std::string(what) +
                  fmt(": det_recall %.3f >= %.2f", q.recall(), kMinDetRecall));
}

/** Frames submitted, frames without output, frames past the deadline. */
struct FrameCounts
{
    std::int64_t submitted = 0;
    std::int64_t noOutput = 0;
    std::int64_t late = 0; ///< no output, or output past kDeadlineMs.
};

FrameCounts
countFrames(const AsyncPass& pass)
{
    FrameCounts c;
    c.submitted = pass.submitted;
    for (const double l : pass.latencyMs) {
        c.noOutput += std::isfinite(l) ? 0 : 1;
        c.late += l <= kDeadlineMs ? 0 : 1;
    }
    return c;
}

std::vector<double>
committedLatencies(const AsyncPass& pass)
{
    std::vector<double> v;
    for (const double l : pass.latencyMs)
        if (std::isfinite(l))
            v.push_back(l);
    return v;
}

Result
runUntraced(const Args& args, SpeedProbe& probe)
{
    Result res;
    Tracer off(false);
    std::vector<double> setupMs;
    Built b;
    std::vector<double> rawSetupMs;
    for (int i = 0; i < kSetupRepeats; ++i) {
        b = Built{};
        const double t0 = nowMs();
        b = setUp(args.seed);
        rawSetupMs.push_back(nowMs() - t0);
        probe.sample();
        setupMs.push_back(rawSetupMs.back() * probe.recentScale());
    }
    const World& world = *b.world;
    const int nFrames =
        static_cast<int>(std::ceil(args.seconds * kClosedLoopFps));
    const std::vector<sensors::Frame> frames = renderFrames(world, nFrames);

    const AsyncPass pass =
        runAsyncPass(world, *b.pipe, frames, args.seconds, nFrames, off,
                     &probe);
    b.pipe.reset();

    // Determinism: a fresh pipeline reproduces the first frames'
    // outputs bit for bit.
    auto again = buildPipeline(world);
    const AsyncPass rep = runAsyncPass(world, *again, frames, args.seconds,
                                       kRepeatFrames, off);
    const int bad = firstMismatch(pass.digests, rep.digests);
    res.check(bad < 0 && rep.submitted == std::min(kRepeatFrames,
                                                    pass.submitted),
              "pipeline output digest repeats across runs of one seed"
              " (first mismatch at frame " + std::to_string(bad) + ")");
    checkQuality(res, pass.quality, kName);

    const FrameCounts counts = countFrames(pass);
    res.attempted = counts.submitted;
    res.failed = counts.noOutput;
    std::vector<double> lat; // at reference speed
    for (std::size_t k = 0; k < pass.latencyMs.size(); ++k)
        if (std::isfinite(pass.latencyMs[k]))
            lat.push_back(pass.latencyMs[k] * pass.scale[k]);
    const Tail tail = tailOf(lat, kTailPercentile);
    noteTail(res, tail, kTailPercentile, "frames");
    res.metric("setup_s", median(setupMs) / 1000.0, "s");
    res.metric("peak_rss_mb", peakRssMb(), "MB");
    res.metric("latency_p50_ms", median(lat), "ms");
    res.metric("latency_tail_ms", tail.valueMs, "ms");
    res.metric("throughput_per_s",
               static_cast<double>(lat.size()) / (pass.windowMs / 1000.0),
               "1/s", -1);
    res.metric("cpu_ms_per_op",
               pass.cpuMs / std::max<double>(1.0, pass.submitted), "ms", 1);
    const std::vector<double> rawLat = committedLatencies(pass);
    res.note(fmt("raw wall-clock frame latency: p50 %.3f ms, p%.0f %.3f ms",
                 median(rawLat), tail.percentile,
                 tailOf(rawLat, kTailPercentile).valueMs));
    if (pass.submitted == static_cast<int>(frames.size()))
        res.note(fmt("all %.0f rendered frames used after %.0f ms",
                     static_cast<double>(frames.size()), pass.windowMs));
    res.note(fmt("deadline_miss_ratio: %.4f",
                 static_cast<double>(counts.late) /
                     std::max<std::int64_t>(1, counts.submitted)));
    res.note(fmt("quality: loc_error_m %.4f det_recall %.4f",
                 pass.quality.locErrorM(), pass.quality.recall()));
    res.note(fmt("raw wall-clock setup ms: %.1f %.1f %.1f", rawSetupMs[0],
                 rawSetupMs.size() > 1 ? rawSetupMs[1] : 0,
                 rawSetupMs.size() > 2 ? rawSetupMs[2] : 0));
    return res;
}

Result
runTraced(const Args& args, Tracer& tracer, SpeedProbe& probe)
{
    Result res;
    Tracer off(false);
    Built b = setUp(args.seed);
    probe.sample(3);
    const World& world = *b.world;

    // The async pass takes 40% of the window; the four replays below
    // take about half of it.
    const double asyncS = 0.4 * args.seconds;
    const int nFrames = static_cast<int>(std::ceil(asyncS * kClosedLoopFps));
    const double r0 = nowMs();
    const std::vector<sensors::Frame> frames = renderFrames(world, nFrames);
    const double renderMs =
        (nowMs() - r0) / std::max<double>(1.0, frames.size());

    const AsyncPass pass =
        runAsyncPass(world, *b.pipe, frames, asyncS, nFrames, tracer);
    b.pipe.reset();

    // Untraced and traced replays alternate (plain, traced, plain,
    // traced) over the same frames, so drift in machine speed falls
    // on both sides of the overhead ratio alike.
    const Replay plain1 =
        replay(world, frames, nFrames, 125.0 * args.seconds, off);
    const Replay traced1 = replay(world, frames, plain1.frames, 0, tracer);
    const Replay plain2 = replay(world, frames, plain1.frames, 0, off);
    const Replay traced2 = replay(world, frames, plain1.frames, 0, tracer);
    const Replay& plain = plain1;
    const Replay traced = merged(traced1, traced2);
    const double plainWallMs = plain1.wallMs + plain2.wallMs;

    // Vision probe: the localizer's ORB extractor on the same frames.
    const vision::OrbExtractor orb(engineParams(world.params).localizer.orb);
    vision::OrbProfile prof;
    double keypoints = 0;
    for (int k = 0; k < plain.frames; ++k) {
        Tracer::Scope span(tracer, "vision.extract", k);
        keypoints += static_cast<double>(
            orb.extract(frames[static_cast<std::size_t>(k)].image, &prof)
                .size());
    }

    // --- checks -------------------------------------------------
    res.check(plain.frames >= kMinReplayFrames,
              "replay covered at least " + std::to_string(kMinReplayFrames) +
                  " frames");
    res.check(plain2.frames == plain.frames &&
                  traced1.frames == plain.frames &&
                  traced2.frames == plain.frames &&
                  firstMismatch(plain.digests, plain2.digests) < 0 &&
                  firstMismatch(plain.digests, traced1.digests) < 0 &&
                  firstMismatch(plain.digests, traced2.digests) < 0,
              "serial replay digest repeats across runs of one seed");
    const int bad = firstMismatch(pass.digests, plain.digests);
    res.check(bad < 0, "serial replay matches the async pipeline"
                       " (first mismatch at frame " +
                           std::to_string(bad) + ")");
    checkQuality(res, pass.quality, kName);

    const auto stats = tracer.stats();
    const auto span = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? SpanStats{} : it->second;
    };
    const double recErr = tracer.reconciliationErrorMs();
    res.check(recErr <= 1e-3,
              fmt("span tree: children + self = parent (error %.3g ms)",
                  recErr));
    // A stage that did almost nothing (no tracker ran) leaves only
    // clock-read overhead unattributed; below kTimerFloorMs per call
    // the share says nothing about attribution, so it is not gated.
    const double n = std::max(1, traced.frames);
    const auto unattributed = [&](const char* what, double whole,
                                  double parts) {
        const double gap = whole - parts;
        const double share = whole > 0 ? gap / whole : 1.0;
        res.note(std::string("unattributed ") + what + fmt(": %.4f", share));
        res.check(std::fabs(share) <= kMaxUnattributed ||
                      std::fabs(gap) <= kTimerFloorMs * n,
                  std::string(what) + fmt(": unattributed %.4f <= %.2f",
                                          share, kMaxUnattributed));
    };
    const double detSpan = span("detect.detect").totalMs;
    const double locSpan = span("slam.localize").totalMs;
    const double traSpan = span("track.update").totalMs;
    const double fuseSpan = span("fusion.fuse").totalMs;
    unattributed("detect span vs DetectorTimings.totalMs", detSpan,
                 traced.det.totalMs);
    unattributed("DetectorTimings dnn+decode vs total", traced.det.totalMs,
                 traced.det.dnnMs + traced.det.decodeMs);
    unattributed("localize span vs LocalizerTimings.totalMs", locSpan,
                 traced.loc.totalMs);
    unattributed("LocalizerTimings parts vs total", traced.loc.totalMs,
                 traced.loc.feMs + traced.loc.matchMs + traced.loc.solveMs +
                     traced.loc.relocMs + traced.loc.loopMs);
    unattributed("track span vs PoolTimings.totalMs", traSpan,
                 traced.pool.totalMs);
    unattributed("frame span vs its stage spans", span("frame").totalMs,
                 span("frame").totalMs - span("frame").selfMs);

    // --- per-layer metrics --------------------------------------
    const std::vector<double> lat = committedLatencies(pass);
    const double p50 = median(lat);
    double latSum = 0;
    for (const double l : lat)
        latSum += l;
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    res.metric("vision.extract_ms", ratio(span("vision.extract").totalMs,
                                          plain.frames), "ms");
    res.metric("vision.mpix_per_s",
               ratio(static_cast<double>(prof.pixelsProcessed) / 1e6,
                     span("vision.extract").totalMs / 1000.0), "Mpix/s");
    res.metric("vision.keypoints_per_frame", ratio(keypoints, plain.frames),
               "count");
    res.metric("vision.fast_yield",
               ratio(static_cast<double>(prof.fast.keypoints),
                     static_cast<double>(prof.fast.candidates)), "ratio");
    res.metric("slam.localize_ms", locSpan / n, "ms");
    res.metric("slam.fe_ms", traced.loc.feMs / n, "ms");
    res.metric("slam.match_ms", traced.loc.matchMs / n, "ms");
    res.metric("slam.solve_ms", traced.loc.solveMs / n, "ms");
    res.metric("slam.reloc_frames", traced.relocFrames / 2.0, "count");
    res.metric("slam.inlier_ratio",
               ratio(static_cast<double>(traced.inliers),
                     static_cast<double>(traced.matches)), "ratio");
    res.metric("slam.loc_error_m", pass.quality.locErrorM(), "m");
    res.metric("detect.detect_ms", detSpan / n, "ms");
    res.metric("detect.dnn_ms", traced.det.dnnMs / n, "ms");
    res.metric("detect.decode_ms", traced.det.decodeMs / n, "ms");
    res.metric("detect.recall", pass.quality.recall(), "ratio");
    res.metric("track.update_ms", traSpan / n, "ms");
    res.metric("track.tracker_runs_per_frame", traced.pool.trackerRuns / n,
               "count");
    res.metric("nn.forward_ms", traced.det.dnnMs / n, "ms");
    res.metric("nn.gflops", ratio(traced.detFlops / 1e6, traced.det.dnnMs / n),
               "GFLOP/s");
    res.metric("fusion.fuse_ms", fuseSpan / n, "ms");
    res.metric("planning.plan_ms", span("planning.plan").totalMs / n, "ms");
    res.metric("pipeline.submit_ms", mean(pass.submitMs), "ms");
    res.metric("pipeline.drain_ms", mean(pass.drainMs), "ms");
    res.metric("pipeline.overlap_ratio", ratio(pass.stageSumMs, latSum),
               "ratio");
    res.metric("pipeline.virtual_error_ratio",
               ratio(std::fabs(pass.pipelinedP50 - p50), p50), "ratio");
    const FrameCounts counts = countFrames(pass);
    res.metric("pipeline.deadline_miss_ratio",
               ratio(static_cast<double>(counts.late),
                     static_cast<double>(counts.submitted)), "ratio");
    res.attempted = counts.submitted;
    res.failed = counts.noOutput;
    res.metric("sensors.render_ms", renderMs, "ms");
    res.metric("bench.trace_overhead_ratio",
               ratio(traced.wallMs, plainWallMs) - 1.0, "ratio");
    res.note(fmt("replay: 2 x %.0f frames, untraced %.1f ms, traced %.1f ms",
                 plain.frames, plainWallMs, traced.wallMs));
    return res;
}

} // namespace

Result
runUrbanDetSaturated(const Args& args, Tracer& tracer, SpeedProbe& probe)
{
    return args.trace ? runTraced(args, tracer, probe)
                      : runUntraced(args, probe);
}

} // namespace adbench
