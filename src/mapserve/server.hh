/**
 * @file
 * The shared map service: queues, batching, cache, merge.
 *
 * TileServer is the server half of the map tier. It reuses the
 * serving-layer idioms on tile traffic instead of NN inference:
 *
 *  - bounded per-vehicle request queues with *freshest-request drop*
 *    (a vehicle that out-drives its own fetch pipeline keeps the
 *    requests for where it is going and sheds the ones for where it
 *    has been);
 *  - a cross-vehicle batch scheduler that coalesces queued requests
 *    of many vehicles into one backend read batch (demand fetches
 *    dispatch immediately, pure-prefetch batches may wait out a
 *    short batching window);
 *  - deadline-aware admission that sheds a *prefetch* whose
 *    predicted completion falls after the moment the vehicle will
 *    need the tile -- a late prefetch is pure waste, while a demand
 *    fetch is always admitted because someone is stalled on it;
 *  - a server-side LRU cache of encoded tiles, modeling the DRAM
 *    tier in front of the paper's 41 TB store: hits cost `hitMs`,
 *    misses pay `missMs` of backend storage latency.
 *
 * The server also owns the authoritative map state: crowd-sourced
 * DeltaUpdates buffer until a merge epoch, then apply in a canonical
 * (tile, point, tMs, vehicle, seq) order so the merged content --
 * and the version-stamp log recording it -- is bit-identical no
 * matter how pushes interleaved. Every merged tile's version bumps,
 * which is how clients holding the old copy learn to refresh.
 *
 * Like serve::MultiStreamServer the class is clocked externally:
 * the sim owns the event loop and calls submit / dispatch / merge
 * at virtual times; the server never reads a real clock.
 */

#ifndef AD_MAPSERVE_SERVER_HH
#define AD_MAPSERVE_SERVER_HH

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.hh"
#include "mapserve/tile_codec.hh"
#include "mapserve/world.hh"

namespace ad {
class Config;
}

namespace ad::mapserve {

/** Map-server knobs (`mapserve.*`). */
struct TileServerParams
{
    int queueDepth = 6;        ///< per-vehicle pending-request bound.
    int batchMax = 32;         ///< max requests per backend batch.
    /** Batching window: a pure-prefetch batch may wait this long for
        co-riders; any demand request dispatches immediately. */
    double windowMs = 4.0;
    bool admission = true;     ///< shed predictably-late prefetches.
    std::size_t cacheTiles = 64; ///< server DRAM cache (tiles).
    double fixedMs = 1.0;      ///< per-batch fixed service cost.
    double hitMs = 0.2;        ///< per-tile cost on a cache hit.
    double missMs = 2.0;       ///< per-tile backend storage latency.
    double jitterSigma = 0.05; ///< lognormal batch-cost jitter.
    double mergePeriodMs = 2000.0; ///< delta-merge epoch length.
    std::uint64_t seed = 43;   ///< jitter RNG seed.

    /** Read every `mapserve.server.*` knob (defaults from *this). */
    static TileServerParams fromConfig(const Config& cfg);

    /** The `mapserve.server.*` key registry (docs/CONFIG.md gate). */
    static std::vector<std::string> knownConfigKeys();
};

/** One tile request as submitted by a vehicle. */
struct TileRequest
{
    int vehicle = -1;          ///< requesting stream id.
    std::int64_t seq = 0;      ///< per-vehicle request sequence.
    TileId tile;               ///< requested tile.
    bool prefetch = false;     ///< speculative (sheddable) fetch.
    double arrivalMs = 0.0;    ///< submission time.
    /** Latest useful completion time: the moment the vehicle is
        predicted to need the tile (admission sheds prefetches that
        would land later). */
    double deadlineMs = 0.0;
};

/** Outcome of submitting one request. */
enum class SubmitOutcome
{
    Queued,  ///< accepted into the vehicle's queue.
    Shed     ///< admission-rejected (predictably late prefetch).
};

/** One tile response inside a completed batch. */
struct ServedTile
{
    TileRequest request;       ///< the request being answered.
    std::uint64_t version = 0; ///< tile version at serve time.
    std::vector<std::uint8_t> payload; ///< encodeTile() bytes.
    bool cacheHit = false;     ///< served from the server cache.
};

/** One dispatched backend batch and its completion time. */
struct BatchResult
{
    double startMs = 0.0;      ///< dispatch time.
    double doneMs = 0.0;       ///< completion (delivery) time.
    std::vector<ServedTile> served; ///< responses, request order.
};

/** Server-side counters (merged into MapServeReport). */
struct TileServerStats
{
    std::int64_t submitted = 0;     ///< requests offered.
    std::int64_t demand = 0;        ///< demand (stall) fetches.
    std::int64_t prefetches = 0;    ///< speculative fetches.
    std::int64_t admissionShed = 0; ///< prefetches shed at submit.
    std::int64_t queueEvictions = 0; ///< freshest-drop evictions.
    std::int64_t served = 0;        ///< responses delivered.
    std::int64_t batches = 0;       ///< backend batches dispatched.
    std::int64_t cacheHits = 0;     ///< served from the tile cache.
    std::int64_t cacheMisses = 0;   ///< paid backend latency.
    std::int64_t bytesServed = 0;   ///< compressed payload bytes.
    std::int64_t rawBytes = 0;      ///< uncompressed-equivalent bytes.
    std::int64_t updatesReceived = 0; ///< delta pushes buffered.
    std::int64_t updatesMerged = 0;   ///< delta pushes applied.
    std::int64_t mergeEpochs = 0;     ///< merge() calls.
    std::int64_t tilesMerged = 0;     ///< tile versions bumped.
};

/**
 * The deterministic map server. Externally clocked: the owning sim
 * calls submit() on vehicle traffic, polls nextDispatchMs() to
 * schedule dispatch events, and calls merge() on epoch boundaries.
 */
class TileServer
{
  public:
    /** @param world the synthetic ground-truth map (outlives us). */
    TileServer(const TileServerParams& params, const WorldModel& world);

    /** The construction parameters. */
    const TileServerParams& params() const { return params_; }

    /**
     * Offer one request at virtual time `nowMs`. Demand requests are
     * always accepted; a prefetch whose predicted completion exceeds
     * its deadline is shed when admission is on. A full vehicle
     * queue evicts its oldest queued *prefetch* (freshest-request
     * drop; oldest request if all are demand) to make room -- the
     * eviction is reported through `evicted`/`hadEviction` (both
     * optional) so the caller can clear in-flight bookkeeping.
     */
    SubmitOutcome submit(const TileRequest& request, double nowMs,
                         TileRequest* evicted = nullptr,
                         bool* hadEviction = nullptr);

    /**
     * Earliest time a dispatch could do work: engine-free time once
     * a batch is ready (full batch or demand present), queue-window
     * expiry otherwise, +inf with nothing queued. The sim schedules
     * a dispatch event here after every submit / completion.
     */
    double nextDispatchMs(double nowMs) const;

    /**
     * Try to form and dispatch one batch at `nowMs`. Returns the
     * batch (with completion time and encoded responses) or nullopt
     * when nothing is ready (engine busy, window still open, or
     * queues empty).
     */
    std::optional<BatchResult> dispatch(double nowMs);

    /** Queued requests across all vehicles. */
    std::size_t queuedRequests() const { return queued_; }

    /** Buffer one crowd-sourced descriptor refresh. */
    void pushUpdate(const DeltaUpdate& update);

    /**
     * Merge every buffered update at epoch boundary `nowMs`:
     * canonical (tile, point, tMs, vehicle, seq) application order,
     * one version bump per touched tile, one version-stamp log line
     * per touched tile (embedding the merged tile's checksum), and
     * cache invalidation of the merged tiles.
     */
    void merge(double nowMs);

    /** Current version of `tile` (0 = never merged). */
    std::uint64_t tileVersion(TileId tile) const;

    /** Authoritative current content of `tile`. */
    Tile authoritative(TileId tile) const;

    /**
     * The version-stamp log: one canonical line per merged tile,
     * "epoch=E t=T tile=X,Y v=V updates=K checksum=HEX". Triple-run
     * bitwise identity of this string is a BENCH_map.json bar.
     */
    const std::string& versionLog() const { return versionLog_; }

    /** Server-side counters. */
    const TileServerStats& stats() const { return stats_; }

  private:
    /** Serve one request (cache lookup + encode); cost via *outMs. */
    ServedTile serveOne(const TileRequest& request, double* costMs);
    void cacheInsert(TileId id, std::vector<std::uint8_t> payload,
                     std::uint64_t version, std::size_t rawBytes);

    TileServerParams params_;
    const WorldModel& world_;
    Rng jitterRng_;

    /** Per-vehicle bounded FIFO queues, created on first use. */
    std::vector<std::deque<TileRequest>> queues_;
    std::size_t queued_ = 0;
    std::size_t demandQueued_ = 0;
    /** Arrival times of every queued request (window expiry). */
    std::multiset<double> queuedArrivals_;
    double engineFreeAtMs_ = 0.0;

    /** Authoritative state of tiles touched by merges; pristine
        tiles materialize from the world on demand. */
    std::map<TileId, Tile> dirty_;
    std::vector<DeltaUpdate> pendingUpdates_;
    std::int64_t mergeEpoch_ = 0;
    std::string versionLog_;

    /** Encoded-tile LRU cache: map + recency list of TileIds. */
    struct CacheEntry
    {
        std::vector<std::uint8_t> payload;
        std::uint64_t version = 0;
        std::list<TileId>::iterator lruIt; ///< position in lru_.
        std::size_t rawBytes = 0; ///< rawTileBytes of the encoded tile.
    };
    std::map<TileId, CacheEntry> cache_;
    std::list<TileId> lru_; ///< most recently used at the front.

    TileServerStats stats_;
};

} // namespace ad::mapserve

#endif // AD_MAPSERVE_SERVER_HH
