#include "common/image.hh"

#include <algorithm>
#include <cmath>

#include "common/isa.hh"
#include "common/logging.hh"

#if defined(__x86_64__) || defined(__amd64__)
#define AD_IMAGE_X86 1
#include <immintrin.h>
#endif

namespace ad {

Image::Image(int width, int height, std::uint8_t fill)
    : width_(width), height_(height)
{
    if (width < 0 || height < 0)
        panic("Image: negative dimensions ", width, "x", height);
    data_.assign(static_cast<std::size_t>(width) * height, fill);
}

std::uint8_t
Image::atClamped(int x, int y) const
{
    x = std::clamp(x, 0, width_ - 1);
    y = std::clamp(y, 0, height_ - 1);
    return at(x, y);
}

void
Image::fill(std::uint8_t value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Image::fillRect(const BBox& rect, std::uint8_t value)
{
    const int x0 = std::max(0, static_cast<int>(std::floor(rect.x)));
    const int y0 = std::max(0, static_cast<int>(std::floor(rect.y)));
    const int x1 = std::min(width_, static_cast<int>(std::ceil(rect.xmax())));
    const int y1 = std::min(height_,
                            static_cast<int>(std::ceil(rect.ymax())));
    for (int y = y0; y < y1; ++y)
        std::fill(row(y) + x0, row(y) + x1, value);
}

double
Image::sampleBilinear(double x, double y) const
{
    x = std::clamp(x, 0.0, static_cast<double>(width_ - 1));
    y = std::clamp(y, 0.0, static_cast<double>(height_ - 1));
    const int x0 = static_cast<int>(x);
    const int y0 = static_cast<int>(y);
    const int x1 = std::min(x0 + 1, width_ - 1);
    const int y1 = std::min(y0 + 1, height_ - 1);
    const double fx = x - x0;
    const double fy = y - y0;
    const double top = at(x0, y0) * (1 - fx) + at(x1, y0) * fx;
    const double bot = at(x0, y1) * (1 - fx) + at(x1, y1) * fx;
    return top * (1 - fy) + bot * fy;
}

namespace {

/**
 * One output row's or column's bilinear taps: the two source indices
 * and the weight of the second, computed exactly as sampleBilinear
 * does for the source coordinate.
 */
struct BilinearTap
{
    int i0 = 0;
    int i1 = 0;
    double f = 0;
};

/** Taps for n outputs whose source coordinate is src(i), i < n. */
template <class Src>
std::vector<BilinearTap>
bilinearTaps(int n, int size, Src src)
{
    std::vector<BilinearTap> taps(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const double c =
            std::clamp(src(i), 0.0, static_cast<double>(size - 1));
        BilinearTap& t = taps[static_cast<std::size_t>(i)];
        t.i0 = static_cast<int>(c);
        t.i1 = std::min(t.i0 + 1, size - 1);
        t.f = c - t.i0;
    }
    return taps;
}

/**
 * Resample through precomputed taps, with the same double expressions
 * as sampleBilinear, so the output equals sampling every pixel on its
 * own bit for bit. A source row's horizontal interpolation does not
 * depend on the output row, so a row that consecutive output rows
 * share is interpolated once.
 */
Image
resampleBilinear(const Image& img, const std::vector<BilinearTap>& xs,
                 const std::vector<BilinearTap>& ys)
{
    Image out(static_cast<int>(xs.size()), static_cast<int>(ys.size()));
    std::vector<double> top(xs.size());
    std::vector<double> bot(xs.size());
    int topRow = -1;
    int botRow = -1;
    const auto interpolate = [&](int srcRow, std::vector<double>& dst) {
        const std::uint8_t* r = img.row(srcRow);
        for (std::size_t x = 0; x < xs.size(); ++x) {
            const BilinearTap& tx = xs[x];
            dst[x] = r[tx.i0] * (1 - tx.f) + r[tx.i1] * tx.f;
        }
    };
    for (std::size_t y = 0; y < ys.size(); ++y) {
        const BilinearTap& ty = ys[y];
        if (ty.i0 != topRow) {
            if (ty.i0 == botRow) {
                std::swap(top, bot);
                std::swap(topRow, botRow);
            } else {
                interpolate(ty.i0, top);
                topRow = ty.i0;
            }
        }
        if (ty.i1 != botRow) {
            interpolate(ty.i1, bot);
            botRow = ty.i1;
        }
        std::uint8_t* dst = out.row(static_cast<int>(y));
        for (std::size_t x = 0; x < xs.size(); ++x)
            dst[x] = static_cast<std::uint8_t>(std::clamp(
                top[x] * (1 - ty.f) + bot[x] * ty.f, 0.0, 255.0));
    }
    return out;
}

#if AD_IMAGE_X86

/** boxFiltered's SSE2 path handles radii up to this. */
constexpr int kBoxSse2MaxRadius = 7;

/**
 * boxFiltered for radius <= kBoxSse2MaxRadius, eight pixels per step.
 * Column sums run in uint16 (at most 255 * 15), and each window adds
 * 2r + 1 column sums over a zero-padded row, so clamped windows need
 * no special case; window sums stay below 255 * 225 < 2^16.
 *
 * The quotient is trunc(sum / area) in float, which equals the
 * integer sum / area: both operands are exact, so a whole quotient
 * comes out exact, and any other lies at least 1 / area > 2^-8 from
 * the integers around it, while the one rounding moves it by at most
 * 256 * 2^-24 = 2^-16.
 */
Image
boxFilterSse2(const Image& img, int radius)
{
    const int w = img.width();
    const int h = img.height();
    Image out(w, h);
    // colSum[x] lives at col[radius + x]; the pads stay zero.
    std::vector<std::uint16_t> col(static_cast<std::size_t>(w + 2 * radius),
                                   0);
    std::uint16_t* colSum = col.data() + radius;
    // Per-column window width, clamped at the image border.
    std::vector<float> spanX(static_cast<std::size_t>(w));
    for (int x = 0; x < w; ++x)
        spanX[static_cast<std::size_t>(x)] = static_cast<float>(
            std::min(w, x + radius + 1) - std::max(0, x - radius));

    const __m128i zero = _mm_setzero_si128();
    const auto columns = [&](int y, bool add) {
        const std::uint8_t* src = img.row(y);
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            __m128i* c = reinterpret_cast<__m128i*>(colSum + x);
            const __m128i v = _mm_unpacklo_epi8(
                _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + x)),
                zero);
            const __m128i cur = _mm_loadu_si128(c);
            _mm_storeu_si128(c, add ? _mm_add_epi16(cur, v)
                                    : _mm_sub_epi16(cur, v));
        }
        for (; x < w; ++x)
            colSum[x] = static_cast<std::uint16_t>(
                add ? colSum[x] + src[x] : colSum[x] - src[x]);
    };

    int rowsIn = 0;
    int rowsOut = 0;
    for (int y = 0; y < h; ++y) {
        const int y0 = std::max(0, y - radius);
        const int y1 = std::min(h, y + radius + 1);
        for (; rowsIn < y1; ++rowsIn)
            columns(rowsIn, true);
        for (; rowsOut < y0; ++rowsOut)
            columns(rowsOut, false);
        const auto rows = static_cast<float>(y1 - y0);
        const __m128 rowsV = _mm_set1_ps(rows);
        std::uint8_t* dst = out.row(y);
        int x = 0;
        for (; x + 8 <= w; x += 8) {
            __m128i sum = zero;
            for (int k = -radius; k <= radius; ++k)
                sum = _mm_add_epi16(
                    sum, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                             colSum + x + k)));
            const auto quotient = [&](__m128i s32, int at) {
                const __m128 area =
                    _mm_mul_ps(_mm_loadu_ps(spanX.data() + at), rowsV);
                return _mm_cvttps_epi32(
                    _mm_div_ps(_mm_cvtepi32_ps(s32), area));
            };
            const __m128i q16 = _mm_packs_epi32(
                quotient(_mm_unpacklo_epi16(sum, zero), x),
                quotient(_mm_unpackhi_epi16(sum, zero), x + 4));
            _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + x),
                             _mm_packus_epi16(q16, q16));
        }
        for (; x < w; ++x) {
            std::uint32_t sum = 0;
            for (int k = -radius; k <= radius; ++k)
                sum += colSum[x + k];
            dst[x] = static_cast<std::uint8_t>(
                sum / static_cast<std::uint32_t>(
                          spanX[static_cast<std::size_t>(x)] * rows));
        }
    }
    return out;
}

#endif // AD_IMAGE_X86

} // namespace

Image
Image::resized(int newWidth, int newHeight) const
{
    if (empty() || newWidth <= 0 || newHeight <= 0)
        return Image(newWidth, newHeight);
    const double sx = static_cast<double>(width_) / newWidth;
    const double sy = static_cast<double>(height_) / newHeight;
    return resampleBilinear(
        *this,
        bilinearTaps(newWidth, width_,
                     [sx](int x) { return (x + 0.5) * sx - 0.5; }),
        bilinearTaps(newHeight, height_,
                     [sy](int y) { return (y + 0.5) * sy - 0.5; }));
}

Image
Image::cropResized(const BBox& rect, int outW, int outH) const
{
    if (empty() || rect.empty() || outW <= 0 || outH <= 0)
        return Image(outW, outH);
    return resampleBilinear(
        *this, bilinearTaps(outW, width_, [&rect, outW](int x) {
            return rect.x + (x + 0.5) / outW * rect.w - 0.5;
        }),
        bilinearTaps(outH, height_, [&rect, outH](int y) {
            return rect.y + (y + 0.5) / outH * rect.h - 0.5;
        }));
}

Image
Image::boxFiltered(int radius) const
{
    if (radius <= 0 || empty())
        return *this;
#if AD_IMAGE_X86
    if (radius <= kBoxSse2MaxRadius && currentIsaTier() != IsaTier::Scalar)
        return boxFilterSse2(*this, radius);
#endif
    // Separable running sums: colSum[x] holds column x summed over the
    // window's rows (one row in and one row out per output row), and a
    // running sum over colSum gives each window's total. Integer sums
    // are exact, so sum / area equals the summed-area-table
    // formulation bit for bit.
    Image out(width_, height_);
    std::vector<std::uint32_t> colSum(static_cast<std::size_t>(width_), 0);
    int rowsIn = 0;  // rows [0, rowsIn) have been added
    int rowsOut = 0; // rows [0, rowsOut) have been removed again
    for (int y = 0; y < height_; ++y) {
        const int y0 = std::max(0, y - radius);
        const int y1 = std::min(height_, y + radius + 1);
        for (; rowsIn < y1; ++rowsIn) {
            const std::uint8_t* src = row(rowsIn);
            for (int x = 0; x < width_; ++x)
                colSum[x] += src[x];
        }
        for (; rowsOut < y0; ++rowsOut) {
            const std::uint8_t* src = row(rowsOut);
            for (int x = 0; x < width_; ++x)
                colSum[x] -= src[x];
        }
        const auto rows = static_cast<std::uint64_t>(y1 - y0);
        std::uint8_t* dst = out.row(y);
        std::uint64_t sum = 0; // colSum over [x - radius, x + radius]
        for (int x = 0; x < std::min(radius, width_); ++x)
            sum += colSum[x];
        for (int x = 0; x < width_; ++x) {
            if (x + radius < width_)
                sum += colSum[x + radius];
            if (x - radius - 1 >= 0)
                sum -= colSum[x - radius - 1];
            const int x0 = std::max(0, x - radius);
            const int x1 = std::min(width_, x + radius + 1);
            const std::uint64_t area =
                static_cast<std::uint64_t>(x1 - x0) * rows;
            dst[x] = static_cast<std::uint8_t>(sum / area);
        }
    }
    return out;
}

double
Image::meanIntensity() const
{
    if (empty())
        return 0.0;
    std::uint64_t sum = 0;
    for (const auto v : data_)
        sum += v;
    return static_cast<double>(sum) / static_cast<double>(data_.size());
}

} // namespace ad
