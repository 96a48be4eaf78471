#include "mapserve/server.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/config.hh"
#include "common/logging.hh"

namespace ad::mapserve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Cross-vehicle dispatch order: demand fetches before prefetches,
    then earliest deadline, then (vehicle, seq) as the total-order
    tie break every determinism bar needs. */
bool
dispatchBefore(const TileRequest& a, const TileRequest& b)
{
    if (a.prefetch != b.prefetch)
        return !a.prefetch;
    if (a.deadlineMs != b.deadlineMs)
        return a.deadlineMs < b.deadlineMs;
    if (a.vehicle != b.vehicle)
        return a.vehicle < b.vehicle;
    return a.seq < b.seq;
}

/** Canonical merge-application order (arrival-order independent). */
bool
mergeBefore(const DeltaUpdate& a, const DeltaUpdate& b)
{
    if (!(a.tile == b.tile))
        return a.tile < b.tile;
    if (a.pointId != b.pointId)
        return a.pointId < b.pointId;
    if (a.tMs != b.tMs)
        return a.tMs < b.tMs;
    if (a.vehicle != b.vehicle)
        return a.vehicle < b.vehicle;
    return a.seq < b.seq;
}

} // namespace

TileServerParams
TileServerParams::fromConfig(const Config& cfg)
{
    TileServerParams p;
    p.queueDepth =
        cfg.getInt("mapserve.server.queue-depth", p.queueDepth);
    p.batchMax = cfg.getInt("mapserve.server.batch-max", p.batchMax);
    p.windowMs =
        cfg.getDouble("mapserve.server.window-ms", p.windowMs);
    p.admission =
        cfg.getBool("mapserve.server.admission", p.admission);
    p.cacheTiles = static_cast<std::size_t>(cfg.getInt(
        "mapserve.server.cache-tiles",
        static_cast<int>(p.cacheTiles)));
    p.fixedMs = cfg.getDouble("mapserve.server.fixed-ms", p.fixedMs);
    p.hitMs = cfg.getDouble("mapserve.server.hit-ms", p.hitMs);
    p.missMs = cfg.getDouble("mapserve.server.miss-ms", p.missMs);
    p.jitterSigma =
        cfg.getDouble("mapserve.server.jitter-sigma", p.jitterSigma);
    p.mergePeriodMs = cfg.getDouble("mapserve.server.merge-period-ms",
                                    p.mergePeriodMs);
    p.seed = static_cast<std::uint64_t>(
        cfg.getInt("mapserve.server.seed", static_cast<int>(p.seed)));
    return p;
}

std::vector<std::string>
TileServerParams::knownConfigKeys()
{
    return {"mapserve.server.queue-depth",
            "mapserve.server.batch-max",
            "mapserve.server.window-ms",
            "mapserve.server.admission",
            "mapserve.server.cache-tiles",
            "mapserve.server.fixed-ms",
            "mapserve.server.hit-ms",
            "mapserve.server.miss-ms",
            "mapserve.server.jitter-sigma",
            "mapserve.server.merge-period-ms",
            "mapserve.server.seed"};
}

TileServer::TileServer(const TileServerParams& params,
                       const WorldModel& world)
    : params_(params), world_(world), jitterRng_(params.seed)
{
    if (params_.queueDepth < 1)
        fatal("TileServer: queue-depth must be >= 1");
    if (params_.batchMax < 1)
        fatal("TileServer: batch-max must be >= 1");
    if (params_.windowMs < 0.0 || params_.fixedMs < 0.0 ||
        params_.hitMs < 0.0 || params_.missMs < 0.0)
        fatal("TileServer: costs must be non-negative");
}

SubmitOutcome
TileServer::submit(const TileRequest& request, double nowMs,
                   TileRequest* evicted, bool* hadEviction)
{
    if (hadEviction != nullptr)
        *hadEviction = false;
    ++stats_.submitted;
    if (request.prefetch)
        ++stats_.prefetches;
    else
        ++stats_.demand;

    if (request.vehicle < 0)
        fatal("TileServer::submit: negative vehicle id");
    if (static_cast<std::size_t>(request.vehicle) >= queues_.size())
        queues_.resize(static_cast<std::size_t>(request.vehicle) + 1);

    // Deadline-aware admission: shed a prefetch whose *pessimistic*
    // completion estimate (current backlog, every queued request a
    // backend miss) lands after the vehicle needs the tile. Demand
    // requests always enter -- someone is stalled on them.
    if (request.prefetch && params_.admission) {
        const double backlog =
            std::max(0.0, engineFreeAtMs_ - nowMs);
        const double predicted =
            nowMs + backlog + params_.fixedMs +
            static_cast<double>(queued_ + 1) * params_.missMs;
        if (predicted > request.deadlineMs) {
            ++stats_.admissionShed;
            return SubmitOutcome::Shed;
        }
    }

    auto& queue = queues_[static_cast<std::size_t>(request.vehicle)];
    if (static_cast<int>(queue.size()) >= params_.queueDepth) {
        // Freshest-request drop: the vehicle keeps requests for
        // where it is going, sheds the one for where it has been.
        // Prefer the oldest queued prefetch (a demand fetch has a
        // vehicle stalled on it).
        auto victim = queue.begin();
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->prefetch) {
                victim = it;
                break;
            }
        }
        if (evicted != nullptr)
            *evicted = *victim;
        if (hadEviction != nullptr)
            *hadEviction = true;
        queuedArrivals_.erase(
            queuedArrivals_.find(victim->arrivalMs));
        if (!victim->prefetch)
            --demandQueued_;
        queue.erase(victim);
        --queued_;
        ++stats_.queueEvictions;
    }
    queue.push_back(request);
    if (!request.prefetch)
        ++demandQueued_;
    queuedArrivals_.insert(request.arrivalMs);
    ++queued_;
    return SubmitOutcome::Queued;
}

double
TileServer::nextDispatchMs(double nowMs) const
{
    if (queued_ == 0)
        return kInf;
    const double base = std::max(nowMs, engineFreeAtMs_);
    if (demandQueued_ > 0 ||
        queued_ >= static_cast<std::size_t>(params_.batchMax))
        return base;
    // Pure-prefetch backlog: wait out the batching window from the
    // oldest queued arrival to pick up co-riders.
    return std::max(base, *queuedArrivals_.begin() + params_.windowMs);
}

std::optional<BatchResult>
TileServer::dispatch(double nowMs)
{
    if (queued_ == 0 || engineFreeAtMs_ > nowMs)
        return std::nullopt;
    if (demandQueued_ == 0 &&
        queued_ < static_cast<std::size_t>(params_.batchMax) &&
        *queuedArrivals_.begin() + params_.windowMs > nowMs)
        return std::nullopt;

    // Form the batch: every queued request is a candidate; demand
    // first, then earliest deadline.
    std::vector<TileRequest> candidates;
    candidates.reserve(queued_);
    for (const auto& queue : queues_)
        candidates.insert(candidates.end(), queue.begin(),
                          queue.end());
    std::sort(candidates.begin(), candidates.end(), dispatchBefore);
    if (candidates.size() > static_cast<std::size_t>(params_.batchMax))
        candidates.resize(static_cast<std::size_t>(params_.batchMax));

    for (const TileRequest& r : candidates) {
        auto& queue = queues_[static_cast<std::size_t>(r.vehicle)];
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->seq == r.seq) {
                queuedArrivals_.erase(
                    queuedArrivals_.find(it->arrivalMs));
                if (!it->prefetch)
                    --demandQueued_;
                queue.erase(it);
                --queued_;
                break;
            }
        }
    }

    BatchResult batch;
    batch.startMs = nowMs;
    double cost = params_.fixedMs;
    batch.served.reserve(candidates.size());
    for (const TileRequest& r : candidates) {
        double tileCost = 0.0;
        batch.served.push_back(serveOne(r, &tileCost));
        cost += tileCost;
    }
    if (params_.jitterSigma > 0.0) {
        const double s = params_.jitterSigma;
        cost *= jitterRng_.lognormal(-0.5 * s * s, s);
    }
    engineFreeAtMs_ = nowMs + cost;
    batch.doneMs = engineFreeAtMs_;
    ++stats_.batches;
    stats_.served += static_cast<std::int64_t>(batch.served.size());
    return batch;
}

ServedTile
TileServer::serveOne(const TileRequest& request, double* costMs)
{
    ServedTile out;
    out.request = request;
    out.version = tileVersion(request.tile);

    std::size_t rawBytes = 0;
    auto it = cache_.find(request.tile);
    if (it != cache_.end() && it->second.version == out.version) {
        out.cacheHit = true;
        out.payload = it->second.payload;
        rawBytes = it->second.rawBytes;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        *costMs = params_.hitMs;
        ++stats_.cacheHits;
    } else {
        const Tile tile = authoritative(request.tile);
        out.payload = encodeTile(tile);
        rawBytes = rawTileBytes(tile);
        *costMs = params_.missMs;
        ++stats_.cacheMisses;
        cacheInsert(request.tile, out.payload, out.version, rawBytes);
    }
    stats_.bytesServed +=
        static_cast<std::int64_t>(out.payload.size());
    stats_.rawBytes += static_cast<std::int64_t>(rawBytes);
    return out;
}

void
TileServer::cacheInsert(TileId id, std::vector<std::uint8_t> payload,
                        std::uint64_t version, std::size_t rawBytes)
{
    if (params_.cacheTiles == 0)
        return;
    auto it = cache_.find(id);
    if (it != cache_.end()) {
        it->second.payload = std::move(payload);
        it->second.version = version;
        it->second.rawBytes = rawBytes;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return;
    }
    lru_.push_front(id);
    cache_[id] =
        CacheEntry{std::move(payload), version, lru_.begin(), rawBytes};
    if (cache_.size() > params_.cacheTiles) {
        cache_.erase(lru_.back());
        lru_.pop_back();
    }
}

void
TileServer::pushUpdate(const DeltaUpdate& update)
{
    pendingUpdates_.push_back(update);
    ++stats_.updatesReceived;
}

void
TileServer::merge(double nowMs)
{
    ++stats_.mergeEpochs;
    ++mergeEpoch_;
    if (pendingUpdates_.empty())
        return;
    std::sort(pendingUpdates_.begin(), pendingUpdates_.end(),
              mergeBefore);

    std::size_t i = 0;
    while (i < pendingUpdates_.size()) {
        const TileId id = pendingUpdates_[i].tile;
        Tile tile = authoritative(id);
        std::int64_t applied = 0;
        for (; i < pendingUpdates_.size() &&
               pendingUpdates_[i].tile == id;
             ++i) {
            const DeltaUpdate& u = pendingUpdates_[i];
            for (TilePoint& p : tile.points) {
                if (p.id == u.pointId) {
                    p.desc = u.desc;
                    tile.appearance = u.appearance;
                    ++applied;
                    break;
                }
            }
        }
        if (applied == 0)
            continue;
        tile.version += 1;
        // Merged tiles invalidate their cache entry; the next fetch
        // re-encodes and re-caches the new epoch.
        auto cit = cache_.find(id);
        if (cit != cache_.end()) {
            lru_.erase(cit->second.lruIt);
            cache_.erase(cit);
        }
        char line[160];
        std::snprintf(line, sizeof(line),
                      "epoch=%lld t=%.3f tile=%s v=%llu updates=%lld "
                      "checksum=%016llx\n",
                      static_cast<long long>(mergeEpoch_), nowMs,
                      id.toString().c_str(),
                      static_cast<unsigned long long>(tile.version),
                      static_cast<long long>(applied),
                      static_cast<unsigned long long>(
                          tileChecksum(tile)));
        versionLog_ += line;
        stats_.updatesMerged += applied;
        ++stats_.tilesMerged;
        dirty_[id] = std::move(tile);
    }
    pendingUpdates_.clear();
}

std::uint64_t
TileServer::tileVersion(TileId tile) const
{
    const auto it = dirty_.find(tile);
    return it == dirty_.end() ? 0 : it->second.version;
}

Tile
TileServer::authoritative(TileId tile) const
{
    const auto it = dirty_.find(tile);
    if (it != dirty_.end())
        return it->second;
    return world_.tileAt(tile, 0.0f);
}

} // namespace ad::mapserve
