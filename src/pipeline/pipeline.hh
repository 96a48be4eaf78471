/**
 * @file
 * The end-to-end autonomous driving pipeline (Figure 1), measured
 * mode: camera frames flow into the object-detection engine (1a) and
 * the localization engine (1b) in parallel; detections feed the object
 * tracker (1c); tracked objects and the vehicle location fuse onto one
 * world coordinate space (2); the motion planner produces trajectories
 * (3); the mission planner re-routes only on deviation (4); and the
 * vehicle controller follows the plan (5).
 *
 * Per-stage latencies are recorded per frame in one stage record
 * (obs::FrameLatencySample); the end-to-end latency composes as
 * max(LOC, DET + TRA) + FUSION + MOTPLAN, reflecting the parallel
 * branches.
 *
 * Both execution modes run the same stage graph: the serial path
 * (processFrame) runs it in topological order on the calling thread
 * (FrameGraphExecutor::runInline), and the async path
 * (`pipeline.async`, submitFrame) runs it through the frame-graph
 * executor (frame_graph.hh) so stages of up to `pipeline.depth`
 * consecutive frames overlap. Outputs are bitwise-identical across
 * modes at depth 1 and deterministic at every depth, worker count,
 * and schedule seed.
 */

#ifndef AD_PIPELINE_PIPELINE_HH
#define AD_PIPELINE_PIPELINE_HH

#include <array>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>

#include "common/stats.hh"
#include "detect/yolo.hh"
#include "obs/deadline.hh"
#include "fusion/fusion.hh"
#include "pipeline/fault_injector.hh"
#include "pipeline/frame_graph.hh"
#include "pipeline/governor.hh"
#include "planning/conformal.hh"
#include "planning/control.hh"
#include "planning/mission.hh"
#include "slam/localizer.hh"
#include "track/pool.hh"

namespace ad::pipeline {

/** Pipeline construction parameters. */
struct PipelineParams
{
    detect::DetectorParams detector;
    track::PoolParams trackerPool;
    slam::LocalizerParams localizer;
    planning::ConformalParams motionPlanner;
    planning::MissionParams mission;
    planning::ControlParams control;
    double laneCenterY = 5.25; ///< corridor centerline for MOTPLAN.

    /**
     * The `nn.threads` knob applied to every engine at once. 0 leaves
     * the per-engine `threads` fields untouched; any other value
     * overrides DET, TRA and LOC (1 = serial pre-parallel behavior,
     * < 0 = hardware concurrency). Outputs are identical either way.
     */
    int nnThreads = 0;

    /**
     * The `nn.precision` knob applied to both DNN engines at once:
     * Int8 lowers the DET and TRA networks to the quantized kernel
     * path (nn/quant.hh), including the governor's warm standby
     * detector, which inherits the detector params. Fp32 (the
     * default) leaves the per-engine `precision` fields untouched.
     * LOC has no DNN and is unaffected.
     */
    nn::Precision nnPrecision = nn::Precision::Fp32;

    /**
     * The `nn.fuse` knob applied to both DNN engines at once: run the
     * graph-lowering pass (fused conv/FC+activation epilogues, direct
     * convolutions; nn/fusion.hh) on the DET and TRA networks at
     * build. On by default; off keeps the unfused reference path.
     * Outputs are bitwise-identical either way.
     */
    bool nnFuse = true;

    /**
     * The `nn.arena` knob applied to both DNN engines at once: plan
     * each network's intermediates into one static arena at build so
     * the per-frame forward performs zero tensor allocations
     * (nn/planner.hh). On by default; bitwise-identical outputs.
     */
    bool nnArena = true;

    /**
     * Deadline watchdog knobs (100 ms budget by default). The monitor
     * observes every frame -- it is a handful of comparisons -- and
     * never influences engine behavior, so outputs are identical
     * whatever the budget.
     */
    obs::DeadlineParams deadline;

    /**
     * Fault injection (`fault.*` knobs / adrun `--faults`). Disabled
     * by default; when disabled the pipeline draws nothing from the
     * fault stream and behaves exactly as before.
     */
    FaultInjectorParams faults;

    /**
     * The `pipeline.async` knob: run frames through the frame-graph
     * executor (pipeline/frame_graph.hh) so stages of consecutive
     * frames overlap -- DET of frame k runs while TRA/LOC/FUSION of
     * frame k+1 are in flight. Off by default (the serial path). The
     * async path is bitwise-identical to serial at depth 1 and
     * deterministic (schedule-independent) at every depth; the
     * governor's actuation plan lags its serial counterpart by
     * depth-1 frames of feedback (see docs/DESIGN.md).
     */
    bool async = false;

    /**
     * The `pipeline.depth` knob: max frames in flight when
     * `async` is set (>= 1; 1 degenerates to serial scheduling with
     * the async machinery). Each graph edge buffers at most this many
     * frames, so admission backpressure is bounded.
     */
    int asyncDepth = 2;

    /**
     * The `pipeline.seed` knob: seed for the executor's dispatch-order
     * shuffle. 0 (default) dispatches ready stages deterministically
     * by (frame, topological rank); any other value perturbs only the
     * real dispatch order, never outputs -- the determinism tests
     * sweep it to prove schedule independence.
     */
    std::uint64_t scheduleSeed = 0;

    /**
     * Degradation governor (`gov.*` knobs / adrun `--governor`).
     * Disabled by default -- the pipeline then runs every stage every
     * frame (NOMINAL behavior, identical to the pre-governor system).
     * Enabling it also builds the warm standby detector at
     * `governor.degradedDetScale` input scale so DEGRADED-mode frames
     * never pay detector construction cost (the same warm-start rule
     * as the tracker pool, Section 3.1.2).
     */
    GovernorParams governor;
};

/** Everything one frame produces. */
struct FrameOutput
{
    std::vector<detect::Detection> detections;
    std::vector<track::TrackedObject> tracks;
    slam::LocResult localization;
    fusion::FusedScene scene;
    planning::Trajectory trajectory;
    planning::ControlCommand command;
    /** Wall-clock stage latencies plus injected spikes (ms). */
    obs::FrameLatencySample latencies;
    bool missionReplanned = false;

    /** Governor operating mode during this frame. */
    OperatingMode mode = OperatingMode::Nominal;
    /** The camera delivered nothing this frame (injected drop). */
    bool frameDropped = false;
    /** The detection engine actually executed this frame. */
    bool detRan = false;
    /** Stale detections were reused (transient DET failure). */
    bool detFellBack = false;
    /** Pose was dead-reckoned (frame drop or transient LOC failure). */
    bool locFellBack = false;
    /** Tracks advanced by coasting rather than a full update. */
    bool traCoasted = false;

    /** Frame id (submit order); -1 before the pipeline assigns one. */
    std::int64_t frameId = -1;

    /**
     * The frame's pipelined latency on the virtual timeline: commit
     * minus arrival, which includes queueing behind earlier in-flight
     * frames. Equals latencies.endToEndMs(), up to floating-point
     * rounding, on the serial path and in an unloaded async pipeline.
     */
    double pipelinedMs = 0;
};

/**
 * The measured-mode end-to-end system. Holds non-owning pointers to
 * the prior map, camera and (optionally) road graph, which must
 * outlive the pipeline.
 */
class Pipeline
{
  public:
    /**
     * @param map prior map for localization.
     * @param camera camera geometry (shared with the renderer).
     * @param roadGraph optional road network for mission planning.
     * @param params tuning.
     */
    Pipeline(const slam::PriorMap* map, const sensors::Camera* camera,
             const planning::RoadGraph* roadGraph,
             const PipelineParams& params);

    /** Initialize the ego state and (if routable) the mission. */
    void reset(const Pose2& pose, const Vec2& velocity,
               const Vec2& destination);

    /**
     * Provide wheel odometry for the interval before the next frame;
     * forwarded to the localization engine's motion model. In async
     * mode the reading is buffered and applied by the next submitted
     * frame's LOC stage, preserving the serial ordering.
     */
    void feedOdometry(const sensors::OdometryReading& odometry);

    /**
     * Process one camera frame through all engines, serially. Must
     * not be mixed with submitFrame() when `pipeline.async` is set --
     * it bypasses the executor's stage ordering.
     *
     * @param image the frame.
     * @param dt seconds since the previous frame.
     * @param egoSpeed current ego speed (for the controller).
     */
    FrameOutput processFrame(const Image& image, double dt,
                             double egoSpeed);

    /**
     * Submit one frame to the async frame-graph executor, blocking
     * while `pipeline.depth` frames are in flight, and collect every
     * frame that has committed since the last call (zero or more,
     * in frame order; outputs trail submissions by up to the depth).
     * Falls back to processFrame() when async mode is off, returning
     * that single output.
     */
    std::vector<FrameOutput> submitFrame(const Image& image, double dt,
                                         double egoSpeed);

    /**
     * Block until every submitted frame has committed and return the
     * remaining outputs in frame order (empty in serial mode).
     */
    std::vector<FrameOutput> drainAsync();

    /** True when the async frame-graph executor is active. */
    bool asyncEnabled() const { return exec_ != nullptr; }

    /** The async executor, or null in serial mode (for benchmarks). */
    const FrameGraphExecutor* executor() const { return exec_.get(); }

    /** Per-stage latency recorders over all processed frames. */
    const LatencyRecorder& stageLatency(obs::Stage stage) const
    {
        return stageRec_[static_cast<std::size_t>(stage)];
    }
    const LatencyRecorder& detLatency() const
    {
        return stageLatency(obs::Stage::Det);
    }
    const LatencyRecorder& traLatency() const
    {
        return stageLatency(obs::Stage::Tra);
    }
    const LatencyRecorder& locLatency() const
    {
        return stageLatency(obs::Stage::Loc);
    }
    const LatencyRecorder& fusionLatency() const
    {
        return stageLatency(obs::Stage::Fusion);
    }
    const LatencyRecorder& motPlanLatency() const
    {
        return stageLatency(obs::Stage::MotPlan);
    }
    const LatencyRecorder& endToEndLatency() const { return e2eRec_; }

    /**
     * Pipelined (commit minus arrival) latency per frame on the
     * virtual timeline; matches endToEndLatency() on the serial path.
     */
    const LatencyRecorder& pipelinedLatency() const
    {
        return pipelinedRec_;
    }

    /** Aggregate cycle attribution for the Figure 7 breakdown. */
    struct CycleBreakdown
    {
        double detDnnMs = 0;
        double detOtherMs = 0;
        double traDnnMs = 0;
        double traOtherMs = 0;
        double locFeMs = 0;
        double locOtherMs = 0;
    };

    const CycleBreakdown& cycleBreakdown() const { return cycles_; }

    /** The 100 ms reaction-budget watchdog fed by every frame. */
    const obs::DeadlineMonitor& deadlineMonitor() const
    {
        return deadline_;
    }

    /** The degradation governor, or null when disabled. */
    const DegradationGovernor* governor() const
    {
        return governor_ ? &*governor_ : nullptr;
    }

    /** The fault injector, or null when disabled. */
    const FaultInjector* faultInjector() const
    {
        return faults_ ? &*faults_ : nullptr;
    }

    detect::YoloDetector& detector() { return detector_; }
    slam::Localizer& localizer() { return localizer_; }
    planning::MissionPlanner* missionPlanner()
    {
        return mission_ ? &*mission_ : nullptr;
    }

  private:
    /**
     * Everything one in-flight frame carries between stages. Stage
     * methods write disjoint fields; the executor's per-stage frame
     * ordering makes every engine see frames in submit order, so the
     * engines themselves need no locking.
     */
    struct FrameJob
    {
        std::int64_t id = -1;     ///< pipeline frame id.
        double traceStartUs = 0;  ///< wall-clock trace stamp at admission.
        double dt = 0;            ///< seconds since previous frame.
        double egoSpeed = 0;      ///< ego speed for the controller.
        double timeS = 0;         ///< mission clock at this frame (s).
        Image image;              ///< owned copy (async mode only).
        const Image* frame = nullptr; ///< input after SENSE.
        Image corrupted;          ///< corrupted copy when a fault fired.
        FaultPlan fault;          ///< this frame's fault draws.
        FramePlan plan;           ///< governor actuation plan.
        detect::DetectorTimings detTimings;
        track::PoolTimings traTimings;
        FrameOutput out;          ///< the result under construction.
        bool locStaleExceeded = false; ///< LOC blew the staleness bound.
        std::vector<sensors::OdometryReading> odom; ///< buffered input.
    };

    /** The job slot of (executor or serial) frame @p f. */
    FrameJob& jobAt(std::int64_t f)
    {
        return jobs_[static_cast<std::size_t>(f % depth_)];
    }

    /**
     * Reset the slot of frame @p f for the next frame id: inputs,
     * this frame's fault draws and its governor plan.
     */
    FrameJob& startJob(std::int64_t f, double dt, double egoSpeed,
                       const FramePlan& plan);

    /** Sensor corruption (pixel faults) ahead of DET/LOC. */
    void stageSense(FrameJob& job);
    // The five measured stage bodies. Each returns its measured ms;
    // the graph's stage wrapper adds the injected spike and writes
    // the frame's stage record.
    /** (1a) Object detection, with stale-detection fallback. */
    double stageDet(FrameJob& job);
    /** (1b) Localization, with dead-reckoning fallback. */
    double stageLoc(FrameJob& job);
    /** (1c) Object tracking (update, coast, or blind-coast). */
    double stageTra(FrameJob& job);
    /** (2) Fusion onto the world coordinate space. */
    double stageFusion(FrameJob& job);
    /** (3)(4)(5) Mission check, motion planning, vehicle control. */
    double stagePlan(FrameJob& job);

    /**
     * Frame-ordered epilogue: safe-stop escalation, cycle and latency
     * aggregation, deadline/governor feedback, flight recorder and
     * metrics, all fanned out from the frame's stage record. @p timing
     * places the frame's stages on the virtual timeline (executor or
     * runInline; the same rule either way).
     */
    void commitJob(FrameJob& job,
                   const FrameGraphExecutor::FrameTiming& timing);

    /** Declare the stage DAG over this pipeline's stage methods. */
    FrameGraph buildGraph();

    /** (Re)create the executor and pre-stage the first plans. */
    void setupExecutor();

    PipelineParams params_;
    const sensors::Camera* camera_;
    detect::YoloDetector detector_;
    /** Warm standby at degraded input scale (governor enabled only). */
    std::optional<detect::YoloDetector> degradedDetector_;
    track::TrackerPool trackerPool_;
    slam::Localizer localizer_;
    fusion::FusionEngine fusion_;
    std::optional<planning::MissionPlanner> mission_;
    planning::VehicleController controller_;
    std::optional<FaultInjector> faults_;
    std::optional<DegradationGovernor> governor_;

    /** Fallback state: last good results + bounded staleness ages. */
    std::vector<detect::Detection> lastDetections_;
    Pose2 lastLocPose_;
    Vec2 lastLocVelocity_{0, 0};
    int detStaleFrames_ = 0;
    int locStaleFrames_ = 0;

    std::array<LatencyRecorder, obs::kStageCount> stageRec_;
    LatencyRecorder e2eRec_;
    LatencyRecorder pipelinedRec_;
    CycleBreakdown cycles_;
    obs::DeadlineMonitor deadline_;
    double time_ = 0;
    std::int64_t frameIndex_ = 0;
    /** Governor transitions already copied to the flight recorder. */
    std::size_t govTransitionsSeen_ = 0;
    /** Commit time of the last frame on each flight-recorder lane. */
    std::vector<double> flightLaneFreeMs_;

    /** The stage DAG; the serial path runs it inline. */
    FrameGraph graph_;
    /** Graph stage id of each measured stage. */
    std::array<FrameGraph::StageId, obs::kStageCount> stageIds_{};
    int depth_ = 1;               ///< clamped pipeline.depth (1 serial).
    std::vector<FrameJob> jobs_;  ///< ring, indexed frame % depth.

    // --- Async frame-graph state (unused on the serial path). ---
    /**
     * Staged governor plans: commit of frame j computes the plan for
     * frame j + depth (after observing j), and frame admission pops
     * the front. At depth 1 this reproduces the serial plan stream
     * exactly; at depth D the plan lags D-1 frames of feedback but is
     * schedule-independent either way.
     */
    std::deque<FramePlan> planQueue_;
    std::vector<sensors::OdometryReading> pendingOdom_;
    const Image* pendingImage_ = nullptr; ///< staged for admission.
    double pendingDt_ = 0;
    double pendingSpeed_ = 0;
    std::mutex readyMutex_;          ///< guards ready_ only.
    std::deque<FrameOutput> ready_;  ///< committed, not yet collected.
    /**
     * The executor; declared last so it is destroyed (and drained)
     * before any state its in-flight stage tasks touch.
     */
    std::unique_ptr<FrameGraphExecutor> exec_;
};

} // namespace ad::pipeline

#endif // AD_PIPELINE_PIPELINE_HH
