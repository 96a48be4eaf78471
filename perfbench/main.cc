/**
 * @file
 * adbench -- the repository's wall-clock benchmark runner.
 *
 *   adbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *           [--out-dir DIR] [--git-sha SHA] [--src-digest HEX]
 *
 * Prints "# key: value" lines (host fingerprint, notes, failed
 * checks) and, as the last line of standard output, one JSON object
 * with the keys correct, attempted, failed and metrics. An untraced
 * run (--trace 0) reports the end-to-end metrics; a traced run
 * (--trace 1) reports the per-layer metrics and writes its spans to
 * DIR/trace-<workload>-<seed>.json. Exits 1 when an output check
 * fails, 2 on a usage error. perfbench/run.py builds and calls it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace {

using namespace adbench;

struct MetricName
{
    const char* name;
    const char* unit;
};

/** End-to-end metrics, reported by every untraced run. */
const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"},
};

/**
 * Per-layer metrics, reported by every traced run; a layer the
 * workload does not exercise reports 0.
 */
const std::vector<MetricName> kPerLayer = {
    {"vision.extract_ms", "ms"},
    {"vision.mpix_per_s", "Mpix/s"},
    {"vision.keypoints_per_frame", "count"},
    {"vision.fast_yield", "ratio"},
    {"slam.localize_ms", "ms"},
    {"slam.fe_ms", "ms"},
    {"slam.match_ms", "ms"},
    {"slam.solve_ms", "ms"},
    {"slam.reloc_frames", "count"},
    {"slam.inlier_ratio", "ratio"},
    {"slam.loc_error_m", "m"},
    {"detect.detect_ms", "ms"},
    {"detect.dnn_ms", "ms"},
    {"detect.decode_ms", "ms"},
    {"detect.recall", "ratio"},
    {"track.update_ms", "ms"},
    {"track.tracker_runs_per_frame", "count"},
    {"nn.forward_ms", "ms"},
    {"nn.gflops", "GFLOP/s"},
    {"nn.batch_ms.b1", "ms"},
    {"nn.batch_ms.b2", "ms"},
    {"nn.batch_ms.b3", "ms"},
    {"nn.batch_ms.b4", "ms"},
    {"nn.batch_ms.b5", "ms"},
    {"nn.batch_ms.b6", "ms"},
    {"nn.batch_ms.b7", "ms"},
    {"nn.batch_ms.b8", "ms"},
    {"nn.engine_fixed_ms", "ms"},
    {"nn.engine_marginal_ms", "ms"},
    {"nn.engine_fit_error", "ratio"},
    {"fusion.fuse_ms", "ms"},
    {"planning.plan_ms", "ms"},
    {"pipeline.submit_ms", "ms"},
    {"pipeline.drain_ms", "ms"},
    {"pipeline.overlap_ratio", "ratio"},
    {"pipeline.virtual_error_ratio", "ratio"},
    {"pipeline.deadline_miss_ratio", "ratio"},
    {"serve.loop_self_ms", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.batch_fill", "ratio"},
    {"serve.batch_wait_ms", "ms"},
    {"serve.goodput_fps", "1/s"},
    {"serve.fail_ratio", "ratio"},
    {"fleet.run_ms", "ms"},
    {"fleet.migrations", "count"},
    {"fleet.epochs", "count"},
    {"mapserve.run_ms", "ms"},
    {"mapserve.decode_ms", "ms"},
    {"mapserve.cache_hit_ratio", "ratio"},
    {"mapserve.prefetch_useful_ratio", "ratio"},
    {"mapserve.merged_updates", "count"},
    {"mapserve.stall_ratio", "ratio"},
    {"mapserve.demand_tail_ms", "ms"},
    {"sensors.render_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.reference_ms", "ms"},
};

struct Workload
{
    const char* name;
    Result (*run)(const Args&, Tracer&, SpeedProbe&);
};

const Workload kWorkloads[] = {
    {"urban_det_saturated", runUrbanDetSaturated},
    {"fleet_serve_measured", runFleetServeMeasured},
    {"fleet_map_sim", runFleetMapSim},
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "adbench: %s\nusage: adbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA] "
                 "[--src-digest HEX]\nworkloads:",
                 why);
    for (const auto& w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end || val.empty())
                usage("--seed takes an unsigned integer");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (*end || !(a.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--out-dir") {
            a.outDir = val;
        } else if (key == "--git-sha") {
            a.gitSha = val;
        } else if (key == "--src-digest") {
            a.srcDigest = val;
        } else {
            usage(("unknown flag " + key).c_str());
        }
    }
    return a;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload* workload = nullptr;
    for (const auto& w : kWorkloads)
        if (args.workload == w.name)
            workload = &w;
    if (!workload)
        usage(("unknown workload '" + args.workload + "'").c_str());

    const std::string host = hostFingerprint(args);
    std::printf("# host: %s\n", host.c_str());
    std::fflush(stdout);

    Tracer tracer(args.trace);
    SpeedProbe probe;
    Result res = workload->run(args, tracer, probe);
    if (args.trace && probe.samples() > 0)
        res.metric("bench.reference_ms", probe.medianMs(), "ms");

    // Complete the metric set: layers this workload does not run
    // report 0; anything else missing is a bug in the workload.
    // Times and rates the workload marked are brought to reference
    // speed.
    const auto& expected = args.trace ? kPerLayer : kEndToEnd;
    Result out;
    out.attempted = res.attempted;
    out.failed = res.failed;
    for (const auto& w : res.failedChecks())
        out.check(false, w);
    std::string raw;
    for (const auto& m : expected) {
        const double v = res.has(m.name) ? res.value(m.name) : 0.0;
        const int speed = res.speed(m.name);
        out.metric(m.name, v * std::pow(probe.scale(), speed), m.unit);
        if (speed != 0)
            raw += " " + std::string(m.name) + "=" + num(v);
    }
    for (const auto& name : res.names())
        out.check(out.has(name), "metric '" + name + "' is not declared");

    for (const auto& n : res.notes())
        std::printf("# %s\n", n.c_str());
    if (probe.samples() == 0)
        std::printf("# speed: not sampled; times are raw wall-clock\n");
    else
        std::printf("# speed: reference kernel median %s ms over %zu "
                    "samples, scale %s\n",
                    num(probe.medianMs()).c_str(), probe.samples(),
                    num(probe.scale()).c_str());
    if (!raw.empty())
        std::printf("# raw wall-clock:%s\n", raw.c_str());
    if (args.trace) {
        const std::string path = args.outDir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
        if (writeFile(path, tracer.toJson(host)))
            std::printf("# trace: %s (%zu spans)\n", path.c_str(),
                        tracer.spans().size());
        else
            out.check(false, "write " + path);
    }
    for (const auto& f : out.failedChecks())
        std::printf("# FAILED CHECK: %s\n", f.c_str());
    std::printf("%s\n", out.json().c_str());
    return out.correct() ? 0 : 1;
}
