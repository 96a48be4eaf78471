/**
 * @file
 * Shared plumbing of the adbench binary: command-line arguments, the
 * result record every workload fills (metrics, attempted/failed
 * counts, correctness checks), latency statistics, process resource
 * readings and the host fingerprint.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace adbench {

/** Parsed command line (see main.cc for the flags). */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;   ///< measured window per run.
    bool trace = false;      ///< traced run: report per-layer metrics.
    std::string outDir = ".bench_out"; ///< trace and report files.
    std::string gitSha = "unknown";    ///< passed in by run.py.
    std::string srcDigest = "unknown"; ///< hash of the source tree.
};

/**
 * What one run reports. Metrics keep insertion order; checks that
 * fail are listed by name and make the run incorrect.
 */
class Result
{
  public:
    /**
     * Record metric @p name (a name is set once). @p speed says how
     * the raw value follows the host's speed: 1 for a time, -1 for a
     * rate, 0 for a figure that does not (see SpeedProbe).
     */
    void metric(const std::string& name, double value,
                const std::string& unit, int speed = 0);

    /** Value of a recorded metric (fatal when absent). */
    double value(const std::string& name) const;

    /** The @p speed a recorded metric was given (0 when absent). */
    int speed(const std::string& name) const;

    /** True when metric @p name was recorded. */
    bool has(const std::string& name) const;

    /** Names of the recorded metrics, in order. */
    std::vector<std::string> names() const;

    /** Record a correctness check; returns @p ok. */
    bool check(bool ok, const std::string& what);

    /** Free-form "key: value" line printed ahead of the result. */
    void note(const std::string& line);

    bool correct() const { return failedChecks_.empty(); }
    const std::vector<std::string>& failedChecks() const
    {
        return failedChecks_;
    }
    const std::vector<std::string>& notes() const { return notes_; }

    /** The one-line JSON result (correct/attempted/failed/metrics). */
    std::string json() const;

    std::int64_t attempted = 0; ///< operations the workload issued.
    std::int64_t failed = 0;    ///< operations that missed or failed.

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        int speed;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> failedChecks_;
    std::vector<std::string> notes_;
};

/**
 * The host's speed during a run, from the reference kernel
 * (reference/kernel.hh) sampled at moments the workload is idle: after
 * each setup and between operations. A shared host's speed can drift
 * by 2x within minutes, with every code path slowing together, so the
 * workloads report times at reference speed: the raw time times the
 * factor that brings the kernel's median time to kReferenceMs --
 * recentScale() for one operation, scale() for a whole window (rates
 * are divided by it). The kernel shares no code with the program and
 * runs while the workload is idle, so a change to the program does
 * not move the scale (unless it leaves cores busy between
 * operations). The scale and the raw figures are printed with every
 * run. With no sample the scale is 1.
 */
class SpeedProbe
{
  public:
    /** Kernel time (ms) that defines reference speed. */
    static constexpr double kReferenceMs = 5.0;

    /** Samples recentScale() takes the median of. */
    static constexpr std::size_t kRecent = 3;

    /** Least wall time (ms) between two samples of sampleIfDue(). */
    static constexpr double kPeriodMs = 250.0;

    /** Run the kernel @p n times, recording each time. */
    void sample(int n = 1);

    /** sample() once when kPeriodMs has passed since the last sample. */
    void sampleIfDue();

    /** Median kernel time (ms); kReferenceMs before any sample. */
    double medianMs() const;

    /** kReferenceMs / medianMs(): multiplies times, divides rates. */
    double scale() const { return kReferenceMs / medianMs(); }

    /**
     * The scale from the last kRecent samples only, which follows
     * drift within the run; for an operation that just ended.
     */
    double recentScale() const;

    std::size_t samples() const { return ms_.size(); }

    /** Wall time spent in the kernel so far (ms). */
    double spentMs() const { return spentMs_; }

  private:
    double lastMs_ = 0.0;
    double spentMs_ = 0.0;
    std::vector<double> ms_;
};

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> v);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double>& v);

/**
 * The highest of the percentiles 50, 75, 90, 95, 99, 99.9 and 99.99,
 * capped at @p maxPercentile, that still has at least 10 samples
 * beyond it (nearest rank). Each workload caps the percentile at the
 * one its sample count reaches on the reference host, so those runs
 * all report the same percentile; a slower run reports a lower one.
 */
struct Tail
{
    double valueMs = 0.0;
    double percentile = 0.0; ///< 0 when fewer than 20 samples.
    std::size_t beyond = 0;  ///< samples above the percentile.
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> v, double maxPercentile);

/**
 * Note which percentile @p t is, over how many @p what. A run too
 * short for @p wanted is not an output error, so the shortfall is a
 * note, not a failed check.
 */
void noteTail(Result& res, const Tail& t, double wanted,
              const std::string& what);

/** Peak resident set of this process so far (MB). */
double peakRssMb();

/** CPU time (user + system) this process has used so far (ms). */
double processCpuMs();

/** Monotonic wall clock (ms since an arbitrary origin). */
double nowMs();

/** FNV-1a accumulator for output digests. */
class Digest
{
  public:
    void addBytes(const void* p, std::size_t n);
    void addDouble(double d) { addBytes(&d, sizeof d); }
    void addInt(std::int64_t i) { addBytes(&i, sizeof i); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Host fingerprint as a JSON object: CPU model, logical CPUs, int8
 * kernel tier, AD_FORCE_ISA, compiler, flags, build type, git SHA,
 * source digest, workload and seed.
 */
std::string hostFingerprint(const Args& args);

/** Write @p text to @p path, creating the parent directory. */
bool writeFile(const std::string& path, const std::string& text);

/** Format a double with full precision for JSON. */
std::string num(double v);

/** JSON string literal with escapes. */
std::string quoted(const std::string& s);

} // namespace adbench

#endif // PERFBENCH_HARNESS_HH
