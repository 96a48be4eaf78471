#include "mapserve/tile_codec.hh"

#include <cstring>

#include "common/logging.hh"

namespace ad::mapserve {

namespace {

constexpr std::uint32_t kMagic = 0x41444d54u; // "ADMT"
constexpr std::size_t kDescBytes = 32;

/** Append a POD value little-endian-as-stored (the tree is
    single-architecture; tiles never cross an ABI boundary). */
template <typename T>
void
put(std::vector<std::uint8_t>& out, const T& value)
{
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), p, p + sizeof(T));
}

/** Read a POD value, advancing the cursor; fatal on truncation. */
template <typename T>
T
take(const std::vector<std::uint8_t>& in, std::size_t& cursor)
{
    if (cursor + sizeof(T) > in.size())
        fatal("decodeTile: truncated payload at byte ", cursor, " of ",
              in.size());
    T value;
    std::memcpy(&value, in.data() + cursor, sizeof(T));
    cursor += sizeof(T);
    return value;
}

/** The descriptor as 32 raw bytes (word-order preserving). */
void
descBytes(const vision::Descriptor& d,
          std::uint8_t out[kDescBytes])
{
    std::memcpy(out, d.words.data(), kDescBytes);
}

vision::Descriptor
descFromBytes(const std::uint8_t in[kDescBytes])
{
    vision::Descriptor d;
    std::memcpy(d.words.data(), in, kDescBytes);
    return d;
}

} // namespace

std::string
TileId::toString() const
{
    return std::to_string(x) + "," + std::to_string(y);
}

std::vector<std::uint8_t>
encodeTile(const Tile& tile)
{
    std::vector<std::uint8_t> out;
    out.reserve(16 + kDescBytes + tile.points.size() * 24);
    put(out, kMagic);
    put(out, static_cast<std::uint32_t>(tile.points.size()));
    put(out, tile.appearance);
    if (tile.points.empty())
        return out;

    // Anchor: the first point's descriptor, stored raw. Every other
    // descriptor becomes a presence mask over its 32 bytes plus the
    // bytes that differ from the anchor.
    std::uint8_t anchor[kDescBytes];
    descBytes(tile.points.front().desc, anchor);
    out.insert(out.end(), anchor, anchor + kDescBytes);

    for (const TilePoint& p : tile.points) {
        put(out, p.id);
        put(out, p.dx);
        put(out, p.dy);
        put(out, p.height);
        std::uint8_t bytes[kDescBytes];
        descBytes(p.desc, bytes);
        std::uint32_t mask = 0;
        for (std::size_t b = 0; b < kDescBytes; ++b)
            if (bytes[b] != anchor[b])
                mask |= 1u << b;
        put(out, mask);
        for (std::size_t b = 0; b < kDescBytes; ++b)
            if (mask & (1u << b))
                out.push_back(bytes[b]);
    }
    return out;
}

Tile
decodeTile(TileId id, std::uint64_t version,
           const std::vector<std::uint8_t>& bytes)
{
    std::size_t cursor = 0;
    if (take<std::uint32_t>(bytes, cursor) != kMagic)
        fatal("decodeTile: bad magic");
    const auto count = take<std::uint32_t>(bytes, cursor);

    Tile tile;
    tile.id = id;
    tile.version = version;
    tile.appearance = take<float>(bytes, cursor);
    if (count == 0) {
        if (cursor != bytes.size())
            fatal("decodeTile: trailing bytes in empty tile");
        return tile;
    }

    std::uint8_t anchor[kDescBytes];
    if (cursor + kDescBytes > bytes.size())
        fatal("decodeTile: truncated anchor");
    std::memcpy(anchor, bytes.data() + cursor, kDescBytes);
    cursor += kDescBytes;

    // Every point takes at least its 20 fixed bytes (id, dx, dy,
    // height, mask); a count the payload cannot hold is corrupt, and
    // must not size the allocation below.
    constexpr std::size_t kMinPointBytes = 20;
    if (count > (bytes.size() - cursor) / kMinPointBytes)
        fatal("decodeTile: ", count, " points cannot fit the ",
              bytes.size() - cursor, " bytes left");
    tile.points.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        TilePoint p;
        p.id = take<std::int32_t>(bytes, cursor);
        p.dx = take<float>(bytes, cursor);
        p.dy = take<float>(bytes, cursor);
        p.height = take<float>(bytes, cursor);
        const auto mask = take<std::uint32_t>(bytes, cursor);
        std::uint8_t desc[kDescBytes];
        std::memcpy(desc, anchor, kDescBytes);
        for (std::size_t b = 0; b < kDescBytes; ++b)
            if (mask & (1u << b))
                desc[b] = take<std::uint8_t>(bytes, cursor);
        p.desc = descFromBytes(desc);
        tile.points.push_back(p);
    }
    if (cursor != bytes.size())
        fatal("decodeTile: trailing bytes after ", count, " points");
    return tile;
}

std::size_t
rawTileBytes(const Tile& tile)
{
    // Header (magic, count, appearance) + 48 fixed bytes per point
    // (id, dx, dy, height, raw descriptor).
    return 12 + tile.points.size() * (16 + kDescBytes);
}

std::uint64_t
tileChecksum(const Tile& tile)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    std::uint32_t appearanceBits;
    std::memcpy(&appearanceBits, &tile.appearance, 4);
    mix(tile.version);
    mix(appearanceBits);
    for (const TilePoint& p : tile.points) {
        std::uint32_t fx, fy, fh;
        std::memcpy(&fx, &p.dx, 4);
        std::memcpy(&fy, &p.dy, 4);
        std::memcpy(&fh, &p.height, 4);
        mix(static_cast<std::uint32_t>(p.id));
        mix(fx);
        mix(fy);
        mix(fh);
        for (const std::uint64_t w : p.desc.words)
            mix(w);
    }
    return h;
}

} // namespace ad::mapserve
