#include "mapserve/world.hh"

#include <cmath>

#include "common/logging.hh"

namespace ad::mapserve {

namespace {

/** SplitMix64 finalizer: the hash behind every world query. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The world's hash of (seed, a, b, c, salt) is four chained mix64
 * rounds. The first three do not depend on c, so a caller hashing many
 * c for one (a, b, salt) takes this prefix once and finishes each c
 * with hashWith.
 */
std::uint64_t
hashPrefix(std::uint64_t seed, std::int64_t a, std::int64_t b,
           std::uint64_t salt)
{
    std::uint64_t h = mix64(seed ^ salt);
    h = mix64(h ^ static_cast<std::uint64_t>(a));
    return mix64(h ^ static_cast<std::uint64_t>(b));
}

/** The last round: the hash of (seed, a, b, c, salt) from its prefix. */
std::uint64_t
hashWith(std::uint64_t prefix, std::int64_t c)
{
    return mix64(prefix ^ static_cast<std::uint64_t>(c));
}

/** Hash mapped to a uniform double in [0, 1). */
double
uniformOf(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kSaltAnchor = 0xA0C4;
constexpr std::uint64_t kSaltPattern = 0xB3E7;
constexpr std::uint64_t kSaltPos = 0xC519;
constexpr std::uint64_t kSaltDrift = 0xD82B;

} // namespace

WorldModel::WorldModel(const WorldParams& params) : params_(params)
{
    if (params.worldTiles < 1 || params.pointsPerTile < 1)
        fatal("WorldModel: need at least one tile and one point");
    if (params.tileSizeM <= 0.0)
        fatal("WorldModel: tile size must be positive");
    if (params.driftBits < 1 || params.driftBits > 256)
        fatal("WorldModel: driftBits must be in [1, 256]");
}

double
WorldModel::extentM() const
{
    return params_.worldTiles * params_.tileSizeM;
}

std::int64_t
WorldModel::tileCount() const
{
    return static_cast<std::int64_t>(params_.worldTiles) *
           params_.worldTiles;
}

double
WorldModel::wrap(double x) const
{
    const double extent = extentM();
    x = std::fmod(x, extent);
    return x < 0.0 ? x + extent : x;
}

TileId
WorldModel::tileFor(double x, double y) const
{
    return {static_cast<std::int32_t>(
                std::floor(wrap(x) / params_.tileSizeM)),
            static_cast<std::int32_t>(
                std::floor(wrap(y) / params_.tileSizeM))};
}

Tile
WorldModel::tileAt(TileId id, float appearance) const
{
    Tile tile;
    tile.id = id;
    tile.appearance = appearance;
    tile.points.reserve(static_cast<std::size_t>(params_.pointsPerTile));
    const std::uint64_t pos = hashPrefix(params_.seed, id.x, id.y, kSaltPos);
    for (int i = 0; i < params_.pointsPerTile; ++i) {
        TilePoint p;
        p.id = i;
        const std::uint64_t hp = hashWith(pos, i);
        p.dx = static_cast<float>(uniformOf(hp) * params_.tileSizeM);
        p.dy = static_cast<float>(uniformOf(mix64(hp)) *
                                  params_.tileSizeM);
        p.height =
            static_cast<float>(uniformOf(mix64(mix64(hp))) * 6.0);
        p.desc = observed(id, i, appearance);
        tile.points.push_back(p);
    }
    return tile;
}

vision::Descriptor
WorldModel::observed(TileId id, int pointIndex,
                     float appearance) const
{
    // Tile anchor: shared descriptor structure across the tile's
    // landmarks (what the codec's delta packing exploits).
    vision::Descriptor d;
    const std::uint64_t anchor =
        hashPrefix(params_.seed, id.x, id.y, kSaltAnchor);
    for (int w = 0; w < 4; ++w)
        d.words[static_cast<std::size_t>(w)] = hashWith(anchor, w);

    // Per-point pattern: a sparse byte-level difference from the
    // anchor (4 hashed byte positions get hashed values).
    const std::int64_t cell = id.x * 1024 + id.y;
    const std::uint64_t pattern =
        hashPrefix(params_.seed, cell, pointIndex, kSaltPattern);
    for (int k = 0; k < 4; ++k) {
        const std::uint64_t h = hashWith(pattern, k);
        const int byte = static_cast<int>(h % 32);
        const auto value =
            static_cast<std::uint64_t>((h >> 8) & 0xff);
        const int word = byte / 8;
        const int shift = (byte % 8) * 8;
        auto& slot = d.words[static_cast<std::size_t>(word)];
        slot = (slot & ~(0xffull << shift)) | (value << shift);
    }

    // Appearance drift: slot k owns one bit inside its own stride of
    // the 256-bit descriptor and flips iff its threshold u_k is below
    // the illumination state, so observations at a1 < a2 differ in
    // exactly the slots with u_k in (a1, a2].
    const int stride = 256 / params_.driftBits;
    const std::uint64_t drift =
        hashPrefix(params_.seed, cell, pointIndex, kSaltDrift);
    for (int k = 0; k < params_.driftBits; ++k) {
        const std::uint64_t h = hashWith(drift, k);
        const double threshold = uniformOf(h);
        if (threshold < static_cast<double>(appearance)) {
            const int bit =
                k * stride + static_cast<int>(mix64(h) %
                                              static_cast<std::uint64_t>(
                                                  stride));
            d.words[static_cast<std::size_t>(bit / 64)] ^=
                1ull << (bit % 64);
        }
    }
    return d;
}

double
WorldModel::meanHammingBits(const Tile& tile, float appearance) const
{
    if (tile.points.empty())
        return 0.0;
    std::int64_t total = 0;
    for (std::size_t i = 0; i < tile.points.size(); ++i)
        total += tile.points[i].desc.hamming(
            observed(tile.id, static_cast<int>(i), appearance));
    return static_cast<double>(total) /
           static_cast<double>(tile.points.size());
}

} // namespace ad::mapserve
