#include "slam/map.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace ad::slam {

PriorMap::PriorMap(double cellSize) : cellSize_(cellSize)
{
    if (cellSize <= 0)
        panic("PriorMap: cell size must be positive");
}

std::int64_t
PriorMap::cellKey(const Vec2& pos) const
{
    const auto cx = static_cast<std::int64_t>(
        std::floor(pos.x / cellSize_));
    const auto cy = static_cast<std::int64_t>(
        std::floor(pos.y / cellSize_));
    return (cx << 32) ^ (cy & 0xffffffffLL);
}

int
PriorMap::insert(const Vec2& pos, float height,
                 const vision::Descriptor& desc)
{
    MapPoint p;
    p.id = static_cast<std::int32_t>(points_.size());
    p.pos = pos;
    p.height = height;
    p.desc = desc;
    points_.push_back(p);
    index_.push_back({cellKey(pos), static_cast<std::uint32_t>(p.id)});
    indexDirty_ = true;
    return p.id;
}

void
PriorMap::ensureIndex() const
{
    if (!indexDirty_)
        return;
    std::sort(index_.begin(), index_.end());
    indexDirty_ = false;
}

std::vector<std::uint32_t>
PriorMap::queryRadius(const Vec2& center, double radius) const
{
    ensureIndex();
    std::vector<std::uint32_t> result;
    const auto cx0 = static_cast<std::int64_t>(
        std::floor((center.x - radius) / cellSize_));
    const auto cx1 = static_cast<std::int64_t>(
        std::floor((center.x + radius) / cellSize_));
    const auto cy0 = static_cast<std::int64_t>(
        std::floor((center.y - radius) / cellSize_));
    const auto cy1 = static_cast<std::int64_t>(
        std::floor((center.y + radius) / cellSize_));
    const double r2 = radius * radius;
    for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
            const std::int64_t key = (cx << 32) ^ (cy & 0xffffffffLL);
            auto lo = std::lower_bound(index_.begin(), index_.end(),
                                       CellEntry{key, 0});
            for (; lo != index_.end() && lo->key == key; ++lo) {
                const MapPoint& p = points_[lo->index];
                if ((p.pos - center).squaredNorm() <= r2)
                    result.push_back(lo->index);
            }
        }
    }
    return result;
}

int
PriorMap::findSimilar(const Vec2& pos, double radius,
                      const vision::Descriptor& desc, int maxHamming) const
{
    int best = -1;
    int bestDist = maxHamming + 1;
    for (const auto idx : queryRadius(pos, radius)) {
        const int d = points_[idx].desc.hamming(desc);
        if (d < bestDist) {
            bestDist = d;
            best = static_cast<int>(idx);
        }
    }
    return best;
}

void
PriorMap::updateDescriptor(std::size_t index,
                           const vision::Descriptor& desc)
{
    if (index >= points_.size())
        panic("PriorMap::updateDescriptor: index ", index, " out of range");
    points_[index].desc = desc;
}

std::uint64_t
PriorMap::storageBytes() const
{
    // Serialized record: id(4) + pos(16) + height(4) + descriptor(32).
    return 8 + points_.size() * (4 + 16 + 4 + 32);
}

namespace {

template <typename T>
void
writeRaw(std::ostream& os, const T& value)
{
    os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T
readRaw(std::istream& is)
{
    T value{};
    is.read(reinterpret_cast<char*>(&value), sizeof(T));
    return value;
}

} // namespace

void
PriorMap::save(std::ostream& os) const
{
    writeRaw<std::uint64_t>(os, points_.size());
    for (const auto& p : points_) {
        writeRaw(os, p.id);
        writeRaw(os, p.pos.x);
        writeRaw(os, p.pos.y);
        writeRaw(os, p.height);
        for (const auto w : p.desc.words)
            writeRaw(os, w);
    }
}

PriorMap
PriorMap::load(std::istream& is)
{
    PriorMap map;
    const auto n = readRaw<std::uint64_t>(is);
    for (std::uint64_t i = 0; i < n; ++i) {
        MapPoint p;
        p.id = readRaw<std::int32_t>(is);
        p.pos.x = readRaw<double>(is);
        p.pos.y = readRaw<double>(is);
        p.height = readRaw<float>(is);
        for (auto& w : p.desc.words)
            w = readRaw<std::uint64_t>(is);
        // Checked per point: a corrupt count must end here, not after
        // filling memory with default points.
        if (!is)
            fatal("PriorMap::load: truncated map stream");
        map.points_.push_back(p);
        map.index_.push_back({map.cellKey(p.pos),
                              static_cast<std::uint32_t>(i)});
    }
    map.indexDirty_ = true;
    if (!is)
        fatal("PriorMap::load: truncated map stream");
    return map;
}

double
PriorMap::pointsPerMeter() const
{
    if (points_.size() < 2)
        return 0.0;
    double lo = points_[0].pos.x;
    double hi = lo;
    for (const auto& p : points_) {
        lo = std::min(lo, p.pos.x);
        hi = std::max(hi, p.pos.x);
    }
    if (hi - lo < 1.0)
        return static_cast<double>(points_.size());
    return static_cast<double>(points_.size()) / (hi - lo);
}

} // namespace ad::slam
