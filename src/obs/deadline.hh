/**
 * @file
 * Deadline watchdog for the 100 ms reaction budget (Section 2.4.1).
 * Each frame's composed end-to-end latency -- max(LOC, DET + TRA) +
 * FUSION + MOTPLAN, the Figure 1 parallel-branch composition -- is
 * checked against the budget as the frame completes. Violations are
 * counted, attributed to the worst offending stage *on the critical
 * path* (a slow LOC hidden under an even slower DET+TRA branch did not
 * cause the miss), and optionally reported via warn() so an operator
 * sees the miss when it happens rather than in a post-run summary.
 */

#ifndef AD_OBS_DEADLINE_HH
#define AD_OBS_DEADLINE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

namespace ad::obs {

/** The five measured pipeline stages (Figure 1). */
enum class Stage { Det = 0, Tra, Loc, Fusion, MotPlan };

inline constexpr std::size_t kStageCount = 5;

/** Every stage in enum order, for loops over the stage record. */
inline constexpr std::array<Stage, kStageCount> kStages = {
    Stage::Det, Stage::Tra, Stage::Loc, Stage::Fusion, Stage::MotPlan};

/**
 * Short uppercase stage name ("DET", "TRA", ...): the one spelling of
 * each stage in graph declarations, trace and flight spans and metric
 * names.
 */
const char* stageName(Stage stage);

/**
 * Per-stage latencies of one frame (ms): the pipeline's single
 * per-frame stage record. Each stage writes its own entry; the
 * latency recorders, metric histograms, flight spans, watchdog and
 * governor all read this one record.
 */
struct FrameLatencySample
{
    double detMs = 0;
    double traMs = 0;
    double locMs = 0;
    double fusionMs = 0;
    double motPlanMs = 0;

    /** The latency of @p stage (ms). */
    double& operator[](Stage stage) { return this->*field(stage); }
    double operator[](Stage stage) const { return this->*field(stage); }

    /** Parallel-branch composition (Figure 1). */
    double
    endToEndMs() const
    {
        return std::max(locMs, detMs + traMs) + fusionMs + motPlanMs;
    }

  private:
    static constexpr double FrameLatencySample::*
    field(Stage stage)
    {
        constexpr double FrameLatencySample::*kFields[kStageCount] = {
            &FrameLatencySample::detMs, &FrameLatencySample::traMs,
            &FrameLatencySample::locMs, &FrameLatencySample::fusionMs,
            &FrameLatencySample::motPlanMs};
        return kFields[static_cast<std::size_t>(stage)];
    }
};

/** Watchdog knobs. */
struct DeadlineParams
{
    double budgetMs = 100.0;   ///< the paper's reaction budget.
    bool logViolations = false; ///< warn() on each violation.
    /** Stop warning after this many violations (0 = never warn). */
    int maxLoggedViolations = 10;
};

/**
 * Streaming deadline monitor. observe() is a handful of comparisons,
 * so the pipeline feeds it every frame regardless of whether tracing
 * or metrics are enabled; it performs no allocation after
 * construction and never touches engine state.
 */
class DeadlineMonitor
{
  public:
    explicit DeadlineMonitor(const DeadlineParams& params = {});

    /** Check one completed frame against the budget. */
    void observe(std::int64_t frame, const FrameLatencySample& sample);

    std::uint64_t framesObserved() const { return frames_; }
    std::uint64_t violations() const { return violations_; }

    /** Violations attributed to each stage (index by Stage). */
    const std::array<std::uint64_t, kStageCount>&
    violationsByStage() const
    {
        return byStage_;
    }

    /** Largest end-to-end overrun seen (ms beyond the budget). */
    double worstOverrunMs() const { return worstOverrunMs_; }

    /** Frame id of the worst overrun, -1 when none. */
    std::int64_t worstFrame() const { return worstFrame_; }

    const DeadlineParams& params() const { return params_; }

    /**
     * The stage that contributed most to this sample's critical path:
     * the slower perception branch's dominant stage, or FUSION /
     * MOTPLAN when they dominate outright.
     */
    static Stage worstStage(const FrameLatencySample& sample);

    /** Multi-line violation-attribution table. */
    std::string report() const;

  private:
    DeadlineParams params_;
    std::uint64_t frames_ = 0;
    std::uint64_t violations_ = 0;
    std::array<std::uint64_t, kStageCount> byStage_{};
    double worstOverrunMs_ = 0;
    std::int64_t worstFrame_ = -1;
    int logged_ = 0;
};

} // namespace ad::obs

#endif // AD_OBS_DEADLINE_HH
