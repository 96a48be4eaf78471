/**
 * @file
 * Extension bench: feature-extraction (FE) kernels per ISA tier. The
 * paper finds FE dominates the localization engine and builds FPGA/ASIC
 * FE units for it (Figure 7, Table 3); this bench measures the
 * commodity-CPU answer: OrbExtractor::extract on rendered urban HHD
 * frames, pinned to every ISA tier the host can run (the shared
 * resolver of common/isa.hh, the in-process form of AD_FORCE_ISA).
 *
 * Each repetition times every tier over the same frames, tiers
 * interleaved, so drift in machine speed falls on all of them alike;
 * a tier reports the median and quartiles of its per-frame times.
 * Each tier also digests every feature it extracts (coordinates,
 * response and orientation by their bits, level, descriptor).
 *
 * Claims under test (enforced here and in tools/check_bench_json.py):
 *
 *  - speed: the best tier's median extract time is at least 3x
 *    faster than the scalar tier's;
 *  - exactness: every tier's feature digest equals the scalar tier's.
 *
 * Emits BENCH_vision.json (override with --vision-json=PATH).
 *
 * Usage:
 *   bench_ext_vision_fe [--vision-json=PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.hh"
#include "common/config.hh"
#include "common/isa.hh"
#include "common/random.hh"
#include "pipeline/pipeline.hh"
#include "sensors/camera.hh"
#include "sensors/scenario.hh"
#include "vision/orb.hh"

namespace {

using namespace ad;
using bench::quantile;

constexpr double kMinSpeedup = 3.0;
constexpr int kFrames = 24;        ///< rendered HHD frames per pass.
constexpr int kReps = 21;          ///< timed passes per tier.
constexpr std::uint64_t kSeed = 3; ///< scenario seed.

/** Drive the ego along its lane and render n HHD frames. */
std::vector<Image>
renderFrames(int n, std::uint64_t seed)
{
    Rng rng(seed);
    sensors::ScenarioParams sp;
    sp.roadLength = 400;
    const sensors::Scenario sc = sensors::makeUrbanScenario(rng, sp);
    const sensors::Camera camera(sensors::Resolution::HHD);
    sensors::World world = sc.world;
    Pose2 ego = sc.ego.pose;
    std::vector<Image> frames;
    for (int i = 0; i < n; ++i) {
        world.step(0.1);
        ego.pos.x += sc.ego.speed * 0.1;
        frames.push_back(camera.render(world, ego).image);
    }
    return frames;
}

/** FNV-1a over every field of every feature. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    template <class T>
    void
    add(const T& v)
    {
        const auto* p = reinterpret_cast<const unsigned char*>(&v);
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const vision::Feature& f)
    {
        add(f.kp.x);
        add(f.kp.y);
        add(f.kp.response);
        add(f.kp.orientationBin);
        add(f.kp.level);
        for (const std::uint64_t w : f.desc.words)
            add(w);
    }
};

struct TierResult
{
    std::string tier;
    std::vector<double> msPerFrame; ///< one sample per repetition.
    std::uint64_t digest = 0;
    std::size_t features = 0;
};

} // namespace

int
main(int argc, char** argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    cfg.warnUnknownKeys({"vision-json"});
    const std::string path =
        cfg.getString("vision-json", "BENCH_vision.json");

    const std::vector<Image> frames = renderFrames(kFrames, kSeed);
    const vision::OrbExtractor orb(pipeline::PipelineParams{}.localizer.orb);

    std::vector<TierResult> results;
    for (const std::string& tier : availableIsaTiers()) {
        TierResult r;
        r.tier = tier;
        setIsaTier(tier);
        Digest d;
        for (const Image& img : frames) // also warms caches and tables
            for (const vision::Feature& f : orb.extract(img)) {
                d.add(f);
                ++r.features;
            }
        r.digest = d.h;
        results.push_back(r);
    }
    for (int rep = 0; rep < kReps; ++rep) {
        for (TierResult& r : results) {
            setIsaTier(r.tier);
            const auto t0 = std::chrono::steady_clock::now();
            std::size_t sink = 0;
            for (const Image& img : frames)
                sink += orb.extract(img).size();
            const double ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
            if (sink != r.features)
                std::fprintf(stderr, "feature count changed between runs\n");
            r.msPerFrame.push_back(ms / kFrames);
        }
    }
    setIsaTier("");

    const double scalarMs = quantile(results.front().msPerFrame, 0.5);
    double bestSpeedup = 0;
    bool digestsAgree = true;
    for (const TierResult& r : results) {
        bestSpeedup =
            std::max(bestSpeedup, scalarMs / quantile(r.msPerFrame, 0.5));
        digestsAgree = digestsAgree && r.digest == results.front().digest;
    }

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
    }
    std::fprintf(f, "{\n  %s,\n", bench::hostJson().c_str());
    std::fprintf(f,
                 "  \"workload\": {\"frames\": %d, \"width\": %d, "
                 "\"height\": %d, \"seed\": %llu, \"repetitions\": %d},\n",
                 kFrames, frames.front().width(), frames.front().height(),
                 static_cast<unsigned long long>(kSeed), kReps);
    std::fprintf(f, "  \"tiers\": [\n");
    std::printf("%-11s %10s %10s %10s %8s %18s\n", "tier", "p25 ms",
                "median ms", "p75 ms", "speedup", "digest");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const TierResult& r = results[i];
        const double p25 = quantile(r.msPerFrame, 0.25);
        const double med = quantile(r.msPerFrame, 0.5);
        const double p75 = quantile(r.msPerFrame, 0.75);
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"median_ms\": %.3f, "
                     "\"p25_ms\": %.3f, \"p75_ms\": %.3f, "
                     "\"speedup_vs_scalar\": %.2f, \"features\": %zu, "
                     "\"digest\": \"%016llx\"}%s\n",
                     r.tier.c_str(), med, p25, p75, scalarMs / med,
                     r.features, static_cast<unsigned long long>(r.digest),
                     i + 1 < results.size() ? "," : "");
        std::printf("%-11s %10.3f %10.3f %10.3f %7.2fx %18llx\n",
                    r.tier.c_str(), p25, med, p75, scalarMs / med,
                    static_cast<unsigned long long>(r.digest));
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"best_speedup_vs_scalar\": %.2f,\n", bestSpeedup);
    std::fprintf(f, "  \"digests_agree\": %s\n}\n",
                 digestsAgree ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());

    int status = 0;
    if (!digestsAgree) {
        std::fprintf(stderr, "FAIL: tiers extract different features\n");
        status = 1;
    }
    if (results.size() > 1 && bestSpeedup < kMinSpeedup) {
        std::fprintf(stderr, "FAIL: best tier %.2fx < %.1fx the scalar "
                             "tier\n",
                     bestSpeedup, kMinSpeedup);
        status = 1;
    }
    return status;
}
