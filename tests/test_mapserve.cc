/**
 * @file
 * Tests for the map-service tier: the compressed tile codec (exact
 * round-trip, compression win, content checksum), the deterministic
 * synthetic world (seed purity, appearance-proportional drift), the
 * TileServer queue/batch/cache/merge machinery (freshest-request
 * drop on overflow, deadline-aware admission, cache accounting,
 * order-independent merges with a canonical version-stamp log), and
 * the fleet co-simulation end to end -- prefetch eliminating steady
 * stalls, demand fallback when prefetch is off, stale-version
 * read-after-merge refresh, parallel==serial batch decode (the TSan
 * target) and triple-run bitwise determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.hh"
#include "fleet/loadgen.hh"
#include "mapserve/client.hh"
#include "mapserve/server.hh"
#include "mapserve/sim.hh"
#include "mapserve/tile_codec.hh"
#include "mapserve/world.hh"

namespace {

using namespace ad;
using namespace ad::mapserve;

WorldParams
smallWorld()
{
    WorldParams wp;
    wp.worldTiles = 8;
    wp.pointsPerTile = 12;
    return wp;
}

// ------------------------------------------------------------- codec

TEST(TileCodec, RoundTripIsExact)
{
    const WorldModel world(smallWorld());
    const Tile tile = world.tileAt({3, 5}, 0.4f);
    const std::vector<std::uint8_t> bytes = encodeTile(tile);
    const Tile back = decodeTile(tile.id, 7, bytes);

    EXPECT_EQ(back.id, tile.id);
    EXPECT_EQ(back.version, 7u);
    EXPECT_EQ(back.appearance, tile.appearance);
    ASSERT_EQ(back.points.size(), tile.points.size());
    for (std::size_t i = 0; i < tile.points.size(); ++i)
        EXPECT_EQ(back.points[i], tile.points[i])
            << "point " << i << " did not round-trip";
}

TEST(TileCodec, EmptyTileRoundTrips)
{
    Tile tile;
    tile.id = {1, 2};
    tile.appearance = 0.25f;
    const Tile back = decodeTile(tile.id, 0, encodeTile(tile));
    EXPECT_EQ(back.appearance, tile.appearance);
    EXPECT_TRUE(back.points.empty());
}

TEST(TileCodec, DeltaPackingBeatsRawEncoding)
{
    // World tiles share an anchor with sparse per-point byte
    // deltas, so the wire form must undercut the fixed-width raw
    // layout -- compression is the codec's reason to exist.
    const WorldModel world(smallWorld());
    const Tile tile = world.tileAt({0, 0}, 0.0f);
    EXPECT_LT(encodeTile(tile).size(), rawTileBytes(tile));
}

TEST(TileCodec, ChecksumTracksContent)
{
    const WorldModel world(smallWorld());
    Tile a = world.tileAt({2, 2}, 0.0f);
    const Tile b = world.tileAt({2, 2}, 0.0f);
    EXPECT_EQ(tileChecksum(a), tileChecksum(b));

    a.points[0].desc.words[0] ^= 1ull; // one descriptor bit.
    EXPECT_NE(tileChecksum(a), tileChecksum(b));
}

TEST(TileCodecDeathTest, CountBeyondPayloadIsFatal)
{
    // A header claiming 2^32 - 1 points over a payload that holds 12:
    // the decoder must reject the count before sizing an allocation by
    // it (which would throw bad_alloc instead of reporting corruption).
    const WorldModel world(smallWorld());
    std::vector<std::uint8_t> bytes = encodeTile(world.tileAt({1, 1}, 0.0f));
    const std::uint32_t claimed = 0xFFFFFFFFu;
    std::memcpy(bytes.data() + sizeof(std::uint32_t), &claimed,
                sizeof(claimed));
    EXPECT_EXIT((void)decodeTile({1, 1}, 0, bytes),
                ::testing::ExitedWithCode(1), "cannot fit");
}

// ------------------------------------------------------------- world

/**
 * The world's hashes as first written, one full four-round chain per
 * hash; WorldModel hoists the rounds that do not depend on the last
 * argument and must still produce exactly these values.
 */
std::uint64_t
refMix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
refHashOf(std::uint64_t seed, std::int64_t a, std::int64_t b,
          std::int64_t c, std::uint64_t salt)
{
    std::uint64_t h = refMix64(seed ^ salt);
    h = refMix64(h ^ static_cast<std::uint64_t>(a));
    h = refMix64(h ^ static_cast<std::uint64_t>(b));
    return refMix64(h ^ static_cast<std::uint64_t>(c));
}

double
refUniform(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

vision::Descriptor
refObserved(const WorldParams& wp, TileId id, int pointIndex,
            float appearance)
{
    vision::Descriptor d;
    for (int w = 0; w < 4; ++w)
        d.words[static_cast<std::size_t>(w)] =
            refHashOf(wp.seed, id.x, id.y, w, 0xA0C4);
    for (int k = 0; k < 4; ++k) {
        const std::uint64_t h = refHashOf(wp.seed, id.x * 1024 + id.y,
                                          pointIndex, k, 0xB3E7);
        const int byte = static_cast<int>(h % 32);
        const auto value = static_cast<std::uint64_t>((h >> 8) & 0xff);
        auto& slot = d.words[static_cast<std::size_t>(byte / 8)];
        const int shift = (byte % 8) * 8;
        slot = (slot & ~(0xffull << shift)) | (value << shift);
    }
    const int stride = 256 / wp.driftBits;
    for (int k = 0; k < wp.driftBits; ++k) {
        const std::uint64_t h = refHashOf(wp.seed, id.x * 1024 + id.y,
                                          pointIndex, k, 0xD82B);
        if (refUniform(h) < static_cast<double>(appearance)) {
            const int bit =
                k * stride + static_cast<int>(refMix64(h) %
                                              static_cast<std::uint64_t>(
                                                  stride));
            d.words[static_cast<std::size_t>(bit / 64)] ^=
                1ull << (bit % 64);
        }
    }
    return d;
}

TEST(WorldModel, HoistedHashesMatchTheFullChain)
{
    const WorldParams wp = smallWorld();
    const WorldModel world(wp);
    for (const float appearance : {0.0f, 0.05f, 0.5f, 1.0f}) {
        for (int tx = 0; tx < wp.worldTiles; tx += 3) {
            for (int ty = 0; ty < wp.worldTiles; ty += 2) {
                const TileId id{tx, ty};
                const Tile tile = world.tileAt(id, appearance);
                ASSERT_EQ(tile.points.size(),
                          static_cast<std::size_t>(wp.pointsPerTile));
                for (int i = 0; i < wp.pointsPerTile; ++i) {
                    const vision::Descriptor want =
                        refObserved(wp, id, i, appearance);
                    ASSERT_EQ(world.observed(id, i, appearance), want)
                        << id.toString() << " point " << i << " at "
                        << appearance;
                    const TilePoint& p =
                        tile.points[static_cast<std::size_t>(i)];
                    const std::uint64_t hp =
                        refHashOf(wp.seed, tx, ty, i, 0xC519);
                    EXPECT_EQ(p.id, i);
                    EXPECT_EQ(p.dx, static_cast<float>(refUniform(hp) *
                                                       wp.tileSizeM));
                    EXPECT_EQ(p.dy, static_cast<float>(
                                        refUniform(refMix64(hp)) *
                                        wp.tileSizeM));
                    EXPECT_EQ(p.height,
                              static_cast<float>(
                                  refUniform(refMix64(refMix64(hp))) *
                                  6.0));
                    EXPECT_EQ(p.desc, want);
                }
            }
        }
    }
}

TEST(WorldModel, TilesArePureFunctionsOfTheSeed)
{
    const WorldModel a(smallWorld());
    const WorldModel b(smallWorld());
    WorldParams other = smallWorld();
    other.seed = 99;
    const WorldModel c(other);

    const TileId id{4, 7};
    EXPECT_EQ(a.tileAt(id, 0.3f), b.tileAt(id, 0.3f));
    EXPECT_NE(a.tileAt(id, 0.3f), c.tileAt(id, 0.3f));
}

TEST(WorldModel, DriftErrorGrowsWithAppearanceGap)
{
    const WorldModel world(smallWorld());
    const Tile stored = world.tileAt({1, 1}, 0.0f);

    EXPECT_EQ(world.meanHammingBits(stored, 0.0f), 0.0);
    double prev = 0.0;
    for (const float a : {0.25f, 0.5f, 0.75f, 1.0f}) {
        const double err = world.meanHammingBits(stored, a);
        EXPECT_GE(err, prev) << "error not monotone at a=" << a;
        EXPECT_LE(err, smallWorld().driftBits);
        prev = err;
    }
    EXPECT_GT(prev, 0.0);
}

// ------------------------------------------------------------ server

TileServerParams
quietServer()
{
    TileServerParams sp;
    sp.jitterSigma = 0.0; // deterministic costs for latency asserts.
    return sp;
}

TileRequest
request(int vehicle, std::int64_t seq, TileId tile, bool prefetch,
        double nowMs, double deadlineMs)
{
    TileRequest r;
    r.vehicle = vehicle;
    r.seq = seq;
    r.tile = tile;
    r.prefetch = prefetch;
    r.arrivalMs = nowMs;
    r.deadlineMs = deadlineMs;
    return r;
}

TEST(TileServer, QueueOverflowEvictsOldestPrefetch)
{
    // Freshest-request drop: a full vehicle queue sheds the oldest
    // queued *prefetch* -- the requests for where the vehicle has
    // been -- never the newly offered request.
    const WorldModel world(smallWorld());
    TileServerParams sp = quietServer();
    sp.queueDepth = 2;
    TileServer server(sp, world);

    TileRequest evicted;
    bool hadEviction = false;
    EXPECT_EQ(server.submit(request(0, 0, {0, 0}, true, 0.0, 1e6), 0.0),
              SubmitOutcome::Queued);
    EXPECT_EQ(server.submit(request(0, 1, {1, 0}, true, 0.0, 1e6), 0.0),
              SubmitOutcome::Queued);
    EXPECT_EQ(server.submit(request(0, 2, {2, 0}, false, 0.0, 1e6),
                            0.0, &evicted, &hadEviction),
              SubmitOutcome::Queued);

    EXPECT_TRUE(hadEviction);
    EXPECT_EQ(evicted.seq, 0);          // the oldest prefetch went.
    EXPECT_TRUE(evicted.prefetch);
    EXPECT_EQ(server.queuedRequests(), 2u);
    EXPECT_EQ(server.stats().queueEvictions, 1);
    EXPECT_EQ(server.stats().submitted, 3);
}

TEST(TileServer, QueueOverflowOnAllDemandEvictsOldest)
{
    const WorldModel world(smallWorld());
    TileServerParams sp = quietServer();
    sp.queueDepth = 1;
    TileServer server(sp, world);

    TileRequest evicted;
    bool hadEviction = false;
    server.submit(request(3, 0, {0, 0}, false, 0.0, 1e6), 0.0);
    EXPECT_EQ(server.submit(request(3, 1, {1, 0}, false, 0.0, 1e6),
                            0.0, &evicted, &hadEviction),
              SubmitOutcome::Queued);
    EXPECT_TRUE(hadEviction);
    EXPECT_EQ(evicted.seq, 0);
    EXPECT_FALSE(evicted.prefetch);
}

TEST(TileServer, AdmissionShedsPredictablyLatePrefetch)
{
    // A prefetch that cannot land before its deadline is pure waste;
    // a demand fetch with the same impossible deadline is admitted
    // anyway because a vehicle is stalled on it.
    const WorldModel world(smallWorld());
    TileServer server(quietServer(), world);

    EXPECT_EQ(server.submit(request(0, 0, {0, 0}, true, 0.0, 0.5), 0.0),
              SubmitOutcome::Shed);
    EXPECT_EQ(server.submit(request(0, 1, {0, 0}, false, 0.0, 0.5), 0.0),
              SubmitOutcome::Queued);
    EXPECT_EQ(server.stats().admissionShed, 1);
    EXPECT_EQ(server.stats().demand, 1);
}

TEST(TileServer, BatchServesFromCacheOnRepeat)
{
    const WorldModel world(smallWorld());
    TileServer server(quietServer(), world);
    const TileId tile{2, 3};

    server.submit(request(0, 0, tile, false, 0.0, 1e6), 0.0);
    auto first = server.dispatch(server.nextDispatchMs(0.0));
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->served.size(), 1u);
    EXPECT_FALSE(first->served[0].cacheHit);

    // Same tile again, after the engine frees up: a cache hit, and
    // the payload decodes to the authoritative content.
    server.submit(request(1, 0, tile, false, first->doneMs, 1e6),
                  first->doneMs);
    auto second =
        server.dispatch(server.nextDispatchMs(first->doneMs));
    ASSERT_TRUE(second.has_value());
    ASSERT_EQ(second->served.size(), 1u);
    EXPECT_TRUE(second->served[0].cacheHit);

    const Tile got = decodeTile(tile, second->served[0].version,
                                second->served[0].payload);
    EXPECT_EQ(got, server.authoritative(tile));
    EXPECT_EQ(server.stats().cacheHits, 1);
    EXPECT_EQ(server.stats().cacheMisses, 1);
    EXPECT_GT(second->doneMs, second->startMs);
}

std::vector<DeltaUpdate>
refreshBurst(const WorldModel& world, TileId tile, float appearance)
{
    const Tile live = world.tileAt(tile, appearance);
    std::vector<DeltaUpdate> updates;
    for (std::size_t i = 0; i < live.points.size(); ++i) {
        DeltaUpdate u;
        u.tile = tile;
        u.pointId = live.points[i].id;
        u.vehicle = static_cast<int>(i % 3);
        u.seq = static_cast<std::int64_t>(i);
        u.tMs = 500.0;
        u.appearance = appearance;
        u.desc = live.points[i].desc;
        updates.push_back(u);
    }
    return updates;
}

TEST(TileServer, MergeIsOrderIndependentAndBumpsVersions)
{
    const WorldModel world(smallWorld());
    const TileId tile{5, 5};
    const auto updates = refreshBurst(world, tile, 0.6f);

    TileServer a(quietServer(), world);
    TileServer b(quietServer(), world);
    for (const auto& u : updates)
        a.pushUpdate(u);
    auto reversed = updates;
    std::reverse(reversed.begin(), reversed.end());
    for (const auto& u : reversed)
        b.pushUpdate(u);

    a.merge(2000.0);
    b.merge(2000.0);

    // Same canonical log line(s), bit for bit, and the same merged
    // content regardless of push order.
    EXPECT_FALSE(a.versionLog().empty());
    EXPECT_EQ(a.versionLog(), b.versionLog());
    EXPECT_EQ(a.tileVersion(tile), 1u);
    EXPECT_EQ(tileChecksum(a.authoritative(tile)),
              tileChecksum(b.authoritative(tile)));

    // The merged tile carries the refreshed descriptors.
    const Tile merged = a.authoritative(tile);
    const Tile live = world.tileAt(tile, 0.6f);
    ASSERT_EQ(merged.points.size(), live.points.size());
    for (std::size_t i = 0; i < merged.points.size(); ++i)
        EXPECT_EQ(merged.points[i].desc, live.points[i].desc);

    // The log embeds epoch, tile, version and content checksum.
    EXPECT_NE(a.versionLog().find("epoch=1"), std::string::npos);
    EXPECT_NE(a.versionLog().find("tile=5,5"), std::string::npos);
    EXPECT_NE(a.versionLog().find("v=1"), std::string::npos);
}

TEST(TileServer, MergeInvalidatesCachedTile)
{
    const WorldModel world(smallWorld());
    TileServer server(quietServer(), world);
    const TileId tile{4, 4};

    server.submit(request(0, 0, tile, false, 0.0, 1e6), 0.0);
    const auto first = server.dispatch(server.nextDispatchMs(0.0));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->served[0].version, 0u);

    for (const auto& u : refreshBurst(world, tile, 0.5f))
        server.pushUpdate(u);
    server.merge(1000.0);

    // Post-merge the cached version-0 copy must not be served.
    const double t = first->doneMs + 1000.0;
    server.submit(request(1, 0, tile, false, t, 1e6), t);
    const auto second = server.dispatch(server.nextDispatchMs(t));
    ASSERT_TRUE(second.has_value());
    EXPECT_FALSE(second->served[0].cacheHit);
    EXPECT_EQ(second->served[0].version, 1u);
}

// ------------------------------------------------------------ client

TEST(MapClient, LruEvictsLeastRecentlyUsed)
{
    MapClientParams cp;
    cp.cacheTiles = 2;
    MapClient client(cp);
    const WorldModel world(smallWorld());

    client.install(world.tileAt({0, 0}, 0.0f));
    client.install(world.tileAt({1, 0}, 0.0f));
    EXPECT_NE(client.find({0, 0}), nullptr); // touch: {1,0} is LRU.
    client.install(world.tileAt({2, 0}, 0.0f));

    EXPECT_EQ(client.cachedTiles(), 2u);
    EXPECT_EQ(client.peek({1, 0}), nullptr);
    EXPECT_NE(client.peek({0, 0}), nullptr);
    EXPECT_NE(client.peek({2, 0}), nullptr);
    EXPECT_EQ(client.stats().evictions, 1);
}

TEST(MapClient, InstallClearsInFlightMark)
{
    MapClient client(MapClientParams{});
    const WorldModel world(smallWorld());
    client.markInFlight({3, 3});
    EXPECT_TRUE(client.inFlight({3, 3}));
    client.install(world.tileAt({3, 3}, 0.0f));
    EXPECT_FALSE(client.inFlight({3, 3}));
}

// --------------------------------------------------------------- sim

fleet::LoadGenParams
tape(int streams, double horizonMs)
{
    fleet::LoadGenParams lp;
    lp.streams = streams;
    lp.horizonMs = horizonMs;
    return lp;
}

TEST(MapServeSim, PrefetchEliminatesSteadyStalls)
{
    const fleet::ScenarioLoadGen load(tape(32, 8000.0));

    MapServeSimParams on;
    const MapServeReport withPrefetch = MapServeSim(on, load).run();
    MapServeSimParams off;
    off.client.prefetch = false;
    const MapServeReport without = MapServeSim(off, load).run();

    // The zero-bar: with pose-driven prefetch at the default horizon
    // no vehicle ever stalls in steady state; without it, boundary
    // crossings block on cold tiles.
    EXPECT_EQ(withPrefetch.steadyStalls, 0);
    EXPECT_GT(withPrefetch.prefetchIssued, 0);
    EXPECT_GT(without.steadyStalls, 0);
    EXPECT_GT(withPrefetch.prefetchHitRate, without.prefetchHitRate);
}

TEST(MapServeSim, PrefetchMissFallsBackToDemandFetch)
{
    // With prefetch off entirely, every cold crossing must still
    // resolve through the demand path: frames are conserved, every
    // stall unblocks (stall latencies recorded for each), and the
    // demand fetches pay real latency.
    const fleet::ScenarioLoadGen load(tape(16, 6000.0));
    MapServeSimParams sp;
    sp.client.prefetch = false;
    const MapServeReport r = MapServeSim(sp, load).run();

    EXPECT_EQ(r.framesWarm + r.framesStalled + r.framesCoasted,
              r.frames);
    EXPECT_GT(r.framesStalled, 0);
    EXPECT_EQ(static_cast<std::int64_t>(r.stallMs.count),
              r.framesStalled);
    EXPECT_EQ(r.steadyStalls + r.coldStarts, r.framesStalled);
    EXPECT_GT(r.demandLatency.count, 0u);
    EXPECT_GT(r.stallMs.p99, 0.0);
    // Request conservation on the server side.
    EXPECT_EQ(r.server.served + r.server.admissionShed +
                  r.server.queueEvictions,
              r.server.submitted);
}

TEST(MapServeSim, StaleReadRefreshesAfterMerge)
{
    // Drift pushes updates, merges bump versions, and vehicles
    // holding version-stale tiles notice on their next warm hit and
    // re-fetch in the background: error converges instead of
    // ratcheting to the drift ceiling.
    const fleet::ScenarioLoadGen load(tape(24, 10000.0));
    MapServeSimParams sp;
    sp.driftPerMin = 2.0;
    const MapServeReport r = MapServeSim(sp, load).run();

    EXPECT_GT(r.updatesPushed, 0);
    EXPECT_GT(r.server.updatesMerged, 0);
    EXPECT_GT(r.server.mergeEpochs, 0);
    EXPECT_GT(r.staleReads, 0);
    EXPECT_GT(r.staleRefreshes, 0);
    EXPECT_FALSE(r.versionLog.empty());
    EXPECT_GT(r.peakErrBits, 0.0);

    // The update loop must beat the frozen map: same drift with
    // pushes disabled ends with strictly more appearance error.
    MapServeSimParams frozen = sp;
    frozen.updates = false;
    const MapServeReport f = MapServeSim(frozen, load).run();
    EXPECT_LT(r.finalErrBits, f.finalErrBits);
}

TEST(MapServeSim, UpdatesOffFreezesTheMap)
{
    const fleet::ScenarioLoadGen load(tape(8, 4000.0));
    MapServeSimParams sp;
    sp.driftPerMin = 2.0;
    sp.updates = false;
    const MapServeReport r = MapServeSim(sp, load).run();
    EXPECT_EQ(r.updatesPushed, 0);
    EXPECT_EQ(r.server.tilesMerged, 0);
    EXPECT_TRUE(r.versionLog.empty());
}

TEST(MapServeSim, ParallelDecodeMatchesSerial)
{
    // Batch decode into disjoint slots with serial installs must be
    // bitwise-identical to the fully serial path at any thread
    // count. (Run under TSan, this is also the data-race check.)
    const fleet::ScenarioLoadGen load(tape(24, 6000.0));
    MapServeSimParams serial;
    serial.driftPerMin = 2.0;
    MapServeSimParams parallel = serial;
    parallel.decodeThreads = 4;

    const MapServeReport a = MapServeSim(serial, load).run();
    const MapServeReport b = MapServeSim(parallel, load).run();
    EXPECT_EQ(a.summaryString(), b.summaryString());
    EXPECT_EQ(a.versionLog, b.versionLog);
}

TEST(MapServeSim, TripleRunBitwiseDeterminism)
{
    const fleet::ScenarioLoadGen load(tape(16, 6000.0));
    MapServeSimParams sp;
    sp.driftPerMin = 2.0;

    std::vector<std::string> summaries, logs;
    for (int run = 0; run < 3; ++run) {
        const MapServeReport r = MapServeSim(sp, load).run();
        summaries.push_back(r.summaryString());
        logs.push_back(r.versionLog);
    }
    EXPECT_EQ(summaries[0], summaries[1]);
    EXPECT_EQ(summaries[1], summaries[2]);
    EXPECT_EQ(logs[0], logs[1]);
    EXPECT_EQ(logs[1], logs[2]);
    EXPECT_FALSE(logs[0].empty());
}

// ------------------------------------------------------------ config

TEST(MapServeConfig, RegistriesAcceptTheirKeysAndFlagTypos)
{
    std::vector<std::string> known;
    for (const auto& k : MapServeSimParams::knownConfigKeys())
        known.push_back(k);
    for (const auto& k : TileServerParams::knownConfigKeys())
        known.push_back(k);
    for (const auto& k : MapClientParams::knownConfigKeys())
        known.push_back(k);

    Config clean;
    clean.set("mapserve.drift-per-min", "0.5");
    clean.set("mapserve.warmup-ms", "4000");
    clean.set("mapserve.server.cache-tiles", "128");
    clean.set("mapserve.client.horizon-ms", "2500");
    EXPECT_EQ(clean.warnUnknownKeys(known), 0);

    Config typo;
    typo.set("mapserve.server.cache-tile", "128");
    EXPECT_EQ(typo.warnUnknownKeys(known), 1);
}

TEST(MapServeConfig, FromConfigReadsEveryScope)
{
    Config cfg;
    cfg.set("mapserve.world-tiles", "16");
    cfg.set("mapserve.drift-per-min", "1.5");
    cfg.set("mapserve.server.queue-depth", "3");
    cfg.set("mapserve.client.prefetch", "0");
    const MapServeSimParams sp = MapServeSimParams::fromConfig(cfg);
    EXPECT_EQ(sp.world.worldTiles, 16);
    EXPECT_DOUBLE_EQ(sp.driftPerMin, 1.5);
    EXPECT_EQ(sp.server.queueDepth, 3);
    EXPECT_FALSE(sp.client.prefetch);
}

} // namespace
