/**
 * @file
 * fleet_map_sim: fleet::ScenarioLoadGen tapes (bursts, diurnal ramp,
 * stragglers and a hot stream block) for 256 vehicles, each played
 * through fleet::ShardedServer (four modeled shards, stepped
 * serially) and through mapserve::MapServeSim (pose-driven prefetch
 * on, drift high enough that crowd delta updates are pushed and
 * merged). One operation is one tape through both simulators; its
 * latency is the wall time a user of the simulators waits. Tapes
 * run one at a time.
 *
 * The tail and stall figures these simulators report are modeled
 * outcomes on their virtual clocks; they appear only as per-layer
 * metrics and are labelled "modeled" in perfbench/README.md.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.hh"
#include "fleet/loadgen.hh"
#include "mapserve/sim.hh"
#include "mapserve/tile_codec.hh"
#include "mapserve/world.hh"
#include "workloads.hh"

namespace adbench {

namespace {

using namespace ad;

/**
 * Tape size. 256 vehicles x 1 s takes 90-160 ms on the reference
 * host, so a 10 s run holds 60-110 tapes, above the 40 a p75 tail
 * with 10 tapes beyond it needs.
 */
constexpr int kVehicles = 256;
constexpr double kHorizonMs = 1000.0; ///< virtual span of one tape.
constexpr double kTailPercentile = 75.0;
constexpr int kShards = 4;
/** Tapes generated in setup; runs cycle through them. */
constexpr int kTapes = 64;
constexpr double kDeadlineMs = 100.0;

fleet::LoadGenParams
tapeParams(std::uint64_t seed, int index)
{
    fleet::LoadGenParams lp;
    lp.streams = kVehicles;
    lp.horizonMs = kHorizonMs;
    lp.seed = seed * 1000003u + static_cast<std::uint64_t>(index);
    lp.burstP = 0.03;
    lp.rampAmplitude = 0.2;
    lp.rampPeriodMs = kHorizonMs;
    lp.stragglerFraction = 0.05;
    lp.hotModulus = 4;
    lp.hotResidue = 1;
    lp.hotFactor = 4.0;
    lp.hotStartMs = 0.25 * kHorizonMs;
    lp.hotEndMs = 0.75 * kHorizonMs;
    return lp;
}

fleet::FleetParams
fleetParams(std::uint64_t seed)
{
    fleet::FleetParams fp;
    fp.shards = kShards;
    fp.serve.stream.deadlineMs = kDeadlineMs;
    fp.serve.seed = seed;
    fp.serve.governor.enabled = true;
    fp.serve.governor.budgetMs = kDeadlineMs;
    // An engine class fast enough that four shards carry the fleet
    // near capacity, so the hot block makes one shard diverge and the
    // rebalancer migrates streams.
    fp.engine.fixedMs = 2.0;
    fp.engine.marginalMs = 0.5;
    fp.engine.seed = seed * 2654435761u + 1;
    fp.rebalance.periodMs = 250.0;
    return fp;
}

mapserve::MapServeSimParams
mapParams()
{
    mapserve::MapServeSimParams sp;
    sp.server.cacheTiles = 256;
    sp.server.mergePeriodMs = 500.0;
    sp.driftPerMin = 5.0;
    sp.warmupMs = 500.0;
    sp.client.prefetch = true;
    return sp;
}

/** Fleet conservation, as adfleet --check enforces it. */
bool
fleetConserves(const fleet::FleetReport& r)
{
    bool ok = r.framesAdmitted + r.framesCoasted + r.framesShed ==
              r.framesArrived;
    std::int64_t injected = 0;
    int resident = 0;
    for (const auto& s : r.shardRows) {
        ok = ok && s.arrivalsInjected == s.completions + s.sheds;
        injected += s.arrivalsInjected;
        resident += s.streamsFinal;
    }
    return ok && injected == r.framesArrived &&
           resident == r.streamsAdmitted &&
           static_cast<std::int64_t>(r.migrationLog.size()) == r.migrations;
}

/** Map-service conservation, as admapserve --check enforces it. */
bool
mapConserves(const mapserve::MapServeReport& r)
{
    const auto& s = r.server;
    return r.vehicles >= 1 && r.frames >= 1 &&
           r.framesWarm + r.framesStalled + r.framesCoasted == r.frames &&
           r.steadyStalls + r.coldStarts == r.framesStalled &&
           s.served + s.admissionShed + s.queueEvictions == s.submitted &&
           s.cacheHits + s.cacheMisses == s.served &&
           (s.served == 0 || (s.bytesServed > 0 && s.rawBytes >= s.bytesServed)) &&
           s.updatesMerged <= r.updatesPushed;
}

/** What the benchmark keeps of one tape run (not the full reports). */
struct TapeStats
{
    double wallMs = 0.0;
    double cpuMs = 0.0;
    double scale = 1.0; ///< to reference speed (SpeedProbe).
    std::int64_t vehicleFrames = 0; ///< both simulators.
    bool conserved = false;
    std::int64_t merged = 0;
    std::int64_t migrations = 0;
    std::int64_t epochs = 0;
    std::int64_t cacheHits = 0;
    std::int64_t served = 0;
    std::int64_t prefetchIssued = 0;
    std::int64_t prefetchUseful = 0; ///< issued - shed - late.
    std::int64_t stalled = 0;
    std::int64_t mapFrames = 0;
    double demandP99 = 0.0;
    std::string reports; ///< summaries and logs (when asked for).
};

TapeStats
runTape(const fleet::ScenarioLoadGen& tape, std::uint64_t seed, int index,
        Tracer& tracer, bool keepReports)
{
    fleet::FleetReport fr;
    mapserve::MapServeReport mr;
    const double cpu0 = processCpuMs();
    const double t0 = nowMs();
    {
        Tracer::Scope op(tracer, "sim.tape", index);
        {
            Tracer::Scope span(tracer, "fleet.run", index);
            fleet::ShardedServer server(fleetParams(seed), tape);
            fr = server.run();
        }
        {
            Tracer::Scope span(tracer, "mapserve.run", index);
            mapserve::MapServeSim sim(mapParams(), tape);
            mr = sim.run();
        }
    }
    TapeStats t;
    t.wallMs = nowMs() - t0;
    t.cpuMs = processCpuMs() - cpu0;
    t.vehicleFrames = fr.framesArrived + mr.frames;
    t.conserved = fleetConserves(fr) && mapConserves(mr);
    t.merged = mr.server.updatesMerged;
    t.migrations = fr.migrations;
    t.epochs = fr.epochs;
    t.cacheHits = mr.server.cacheHits;
    t.served = mr.server.served;
    t.prefetchIssued = mr.prefetchIssued;
    t.prefetchUseful = mr.prefetchIssued - mr.prefetchShed - mr.prefetchLate;
    t.stalled = mr.framesStalled;
    t.mapFrames = mr.frames;
    t.demandP99 = mr.demandLatency.p99;
    if (keepReports)
        t.reports = fr.summaryString() + fr.migrationLogString() +
                    mr.summaryString() + mr.versionLog;
    return t;
}

std::vector<std::unique_ptr<fleet::ScenarioLoadGen>>
generateTapes(std::uint64_t seed)
{
    std::vector<std::unique_ptr<fleet::ScenarioLoadGen>> tapes;
    for (int i = 0; i < kTapes; ++i)
        tapes.push_back(
            std::make_unique<fleet::ScenarioLoadGen>(tapeParams(seed, i)));
    return tapes;
}

} // namespace

Result
runFleetMapSim(const Args& args, Tracer& tracer, SpeedProbe& probe)
{
    Result res;
    std::vector<double> setupMs;
    std::vector<std::unique_ptr<fleet::ScenarioLoadGen>> tapes;
    const int repeats = args.trace ? 1 : kQuickSetupRepeats;
    for (int i = 0; i < repeats; ++i) {
        tapes.clear();
        const double t0 = nowMs();
        tapes = generateTapes(args.seed);
        const double ms = nowMs() - t0;
        probe.sample();
        setupMs.push_back(ms * probe.recentScale());
    }

    // One tape at a time on the driving thread: the simulators are
    // single-threaded, and a farm of concurrent tapes would also
    // measure how many of the host's cores are free. The host's speed
    // is sampled between tapes, and each tape's times are brought to
    // reference speed by the samples just taken.
    std::vector<TapeStats> runs;
    const double t0 = nowMs();
    const double endMs = t0 + args.seconds * 1000.0;
    while (nowMs() < endMs) {
        const int i = static_cast<int>(runs.size());
        runs.push_back(runTape(*tapes[static_cast<std::size_t>(i % kTapes)],
                               args.seed, i, tracer, i == 0));
        probe.sampleIfDue();
        runs.back().scale = probe.recentScale();
    }
    probe.sample(3);

    std::int64_t vehicleFrames = 0;
    double tapeMs = 0.0, cpuMs = 0.0; // at reference speed
    std::vector<double> lat, rawLat;
    for (const auto& r : runs) {
        vehicleFrames += r.vehicleFrames;
        tapeMs += r.wallMs * r.scale;
        cpuMs += r.cpuMs * r.scale;
        lat.push_back(r.wallMs * r.scale);
        rawLat.push_back(r.wallMs);
    }

    // --- checks -----------------------------------------------------
    res.attempted = static_cast<std::int64_t>(runs.size());
    std::int64_t merged = 0, migrations = 0;
    for (const auto& r : runs) {
        res.failed += r.conserved ? 0 : 1;
        merged += r.merged;
        migrations += r.migrations;
    }
    res.check(res.failed == 0,
              "fleet and mapserve conservation invariants hold on every tape");
    res.check(merged > 0, "crowd delta updates were pushed and merged");
    res.check(migrations > 0, "the rebalancer migrated streams");
    {
        Tracer off(false);
        const TapeStats again = runTape(*tapes[0], args.seed, 0, off, true);
        res.check(again.reports == runs[0].reports,
                  "simulator reports repeat across runs of one tape");
    }
    const Tail tail = tailOf(lat, kTailPercentile);
    noteTail(res, tail, kTailPercentile, "tapes");

    if (!args.trace) {
        res.metric("setup_s", median(setupMs) / 1000.0, "s");
        res.metric("peak_rss_mb", peakRssMb(), "MB");
        res.metric("latency_p50_ms", median(lat), "ms");
        res.metric("latency_tail_ms", tail.valueMs, "ms");
        res.note("raw wall-clock tape latency: p50 " + num(median(rawLat)) +
                 " ms, same percentile " +
                 num(tailOf(rawLat, kTailPercentile).valueMs) + " ms");
        res.metric("throughput_per_s",
                   static_cast<double>(vehicleFrames) / (tapeMs / 1000.0),
                   "1/s");
        res.metric("cpu_ms_per_op", cpuMs / std::max<double>(1.0, runs.size()),
                   "ms");
        return res;
    }

    // --- per-layer metrics ------------------------------------------
    const double n = static_cast<double>(runs.size());
    const auto stats = tracer.stats();
    const auto total = [&](const char* name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0 : it->second.totalMs;
    };
    res.check(tracer.reconciliationErrorMs() <= 1e-3,
              "span tree: children + self = parent");
    const double tapeSpan = total("sim.tape");
    const double share =
        tapeSpan > 0
            ? (tapeSpan - total("fleet.run") - total("mapserve.run")) / tapeSpan
            : 1.0;
    res.check(share <= 0.05, "tape span: unattributed share <= 5%");

    double epochs = 0, hits = 0, served = 0, issued = 0, useful = 0;
    double stalled = 0, frames = 0;
    std::vector<double> demandP99;
    for (const auto& r : runs) {
        epochs += static_cast<double>(r.epochs);
        hits += static_cast<double>(r.cacheHits);
        served += static_cast<double>(r.served);
        issued += static_cast<double>(r.prefetchIssued);
        useful += static_cast<double>(r.prefetchUseful);
        stalled += static_cast<double>(r.stalled);
        frames += static_cast<double>(r.mapFrames);
        demandP99.push_back(r.demandP99);
    }
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    // Standalone decode of every world tile, encoded at baseline.
    const mapserve::WorldModel world(mapParams().world);
    std::vector<std::pair<mapserve::TileId, std::vector<std::uint8_t>>> enc;
    const int edge = world.params().worldTiles;
    for (int x = 0; x < edge; ++x)
        for (int y = 0; y < edge; ++y) {
            const mapserve::TileId id{x, y};
            enc.emplace_back(id, mapserve::encodeTile(world.tileAt(id, 0.0f)));
        }
    std::size_t points = 0;
    const double d0 = nowMs();
    {
        Tracer::Scope span(tracer, "mapserve.decode_all");
        for (const auto& [id, bytes] : enc)
            points += mapserve::decodeTile(id, 0, bytes).points.size();
    }
    const double decodeMs = (nowMs() - d0) / static_cast<double>(enc.size());
    res.check(points == enc.size() *
                            static_cast<std::size_t>(world.params().pointsPerTile),
              "decodeTile returns every encoded point");

    res.metric("fleet.run_ms", total("fleet.run") / n, "ms");
    res.metric("fleet.migrations", static_cast<double>(migrations) / n, "count");
    res.metric("fleet.epochs", epochs / n, "count");
    res.metric("mapserve.run_ms", total("mapserve.run") / n, "ms");
    res.metric("mapserve.decode_ms", decodeMs, "ms");
    res.metric("mapserve.cache_hit_ratio", ratio(hits, served), "ratio");
    res.metric("mapserve.prefetch_useful_ratio", ratio(useful, issued),
               "ratio");
    res.metric("mapserve.merged_updates", static_cast<double>(merged) / n,
               "count");
    res.metric("mapserve.stall_ratio", ratio(stalled, frames), "ratio");
    res.metric("mapserve.demand_tail_ms", median(demandP99), "ms");
    return res;
}

} // namespace adbench
