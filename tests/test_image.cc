/**
 * @file
 * Tests for the image substrate: pixel access, rectangle fills, bilinear
 * sampling/resizing, crop-resize (the tracker's input path) and box
 * filtering. The fast resize and box-filter paths are pinned bit for
 * bit, at every ISA tier, against per-pixel references: sampleBilinear
 * and a summed-area table (IntegralImage, kept here as the reference
 * only).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/image.hh"
#include "common/isa.hh"
#include "common/random.hh"

namespace {

using ad::BBox;
using ad::Image;
using ad::Rng;

/**
 * Summed-area table over an Image, supporting O(1) rectangle sums:
 * the reference the box filter is checked against.
 */
class IntegralImage
{
  public:
    explicit IntegralImage(const Image& img)
        : width_(img.width()), height_(img.height())
    {
        sums_.assign(static_cast<std::size_t>(width_ + 1) * (height_ + 1),
                     0);
        const auto stride = static_cast<std::size_t>(width_ + 1);
        for (int y = 0; y < height_; ++y) {
            std::uint64_t rowSum = 0;
            for (int x = 0; x < width_; ++x) {
                rowSum += img.at(x, y);
                sums_[(y + 1) * stride + x + 1] =
                    sums_[y * stride + x + 1] + rowSum;
            }
        }
    }

    /** Sum of pixels in [x0, x1) x [y0, y1), clamped to the image. */
    std::uint64_t
    rectSum(int x0, int y0, int x1, int y1) const
    {
        x0 = std::clamp(x0, 0, width_);
        y0 = std::clamp(y0, 0, height_);
        x1 = std::clamp(x1, 0, width_);
        y1 = std::clamp(y1, 0, height_);
        if (x1 <= x0 || y1 <= y0)
            return 0;
        const auto stride = static_cast<std::size_t>(width_ + 1);
        return sums_[y1 * stride + x1] - sums_[y0 * stride + x1] -
               sums_[y1 * stride + x0] + sums_[y0 * stride + x0];
    }

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<std::uint64_t> sums_; ///< (width+1) x (height+1).
};

Image
noiseImage(int width, int height, std::uint64_t seed)
{
    Rng rng(seed);
    Image img(width, height);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    return img;
}

/** Restores the ambient ISA tier when a cross-tier test ends. */
struct TierGuard
{
    ~TierGuard() { ad::setIsaTier(""); }
};

TEST(Image, ConstructAndFill)
{
    Image img(8, 4, 7);
    EXPECT_EQ(img.width(), 8);
    EXPECT_EQ(img.height(), 4);
    EXPECT_EQ(img.size(), 32u);
    EXPECT_EQ(img.at(3, 2), 7);
    img.fill(200);
    EXPECT_EQ(img.at(7, 3), 200);
    EXPECT_FALSE(img.empty());
    EXPECT_TRUE(Image().empty());
}

TEST(Image, FillRectClipsToBounds)
{
    Image img(10, 10, 0);
    img.fillRect(BBox(-5, -5, 8, 8), 255);
    EXPECT_EQ(img.at(0, 0), 255);
    EXPECT_EQ(img.at(2, 2), 255);
    EXPECT_EQ(img.at(3, 3), 0);
    img.fillRect(BBox(8, 8, 100, 100), 9);
    EXPECT_EQ(img.at(9, 9), 9);
    EXPECT_EQ(img.at(7, 7), 0);
}

TEST(Image, ClampedAccess)
{
    Image img(4, 4, 0);
    img.at(0, 0) = 10;
    img.at(3, 3) = 20;
    EXPECT_EQ(img.atClamped(-5, -5), 10);
    EXPECT_EQ(img.atClamped(100, 100), 20);
}

TEST(Image, BilinearInterpolatesMidpoint)
{
    Image img(2, 1, 0);
    img.at(0, 0) = 0;
    img.at(1, 0) = 100;
    EXPECT_NEAR(img.sampleBilinear(0.5, 0.0), 50.0, 1e-9);
    EXPECT_NEAR(img.sampleBilinear(0.0, 0.0), 0.0, 1e-9);
    EXPECT_NEAR(img.sampleBilinear(1.0, 0.0), 100.0, 1e-9);
}

TEST(Image, ResizePreservesConstantImage)
{
    Image img(16, 12, 123);
    const Image small = img.resized(7, 5);
    EXPECT_EQ(small.width(), 7);
    EXPECT_EQ(small.height(), 5);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 7; ++x)
            EXPECT_EQ(small.at(x, y), 123);
}

TEST(Image, ResizeUpAndDownRoughlyPreservesMean)
{
    Rng rng(3);
    Image img(32, 32);
    for (int y = 0; y < 32; ++y)
        for (int x = 0; x < 32; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    const double mean = img.meanIntensity();
    EXPECT_NEAR(img.resized(64, 64).meanIntensity(), mean, 4.0);
    EXPECT_NEAR(img.resized(16, 16).meanIntensity(), mean, 6.0);
}

TEST(Image, CropResizedExtractsRegion)
{
    Image img(20, 20, 0);
    img.fillRect(BBox(10, 10, 10, 10), 200);
    // Crop exactly the bright quadrant.
    const Image crop = img.cropResized(BBox(10, 10, 10, 10), 5, 5);
    for (int y = 1; y < 4; ++y)
        for (int x = 1; x < 4; ++x)
            EXPECT_GT(crop.at(x, y), 150) << x << "," << y;
    // Crop the dark quadrant.
    const Image dark = img.cropResized(BBox(0, 0, 10, 10), 5, 5);
    EXPECT_LT(dark.at(2, 2), 50);
}

TEST(Image, BoxFilterSmoothsImpulse)
{
    Image img(9, 9, 0);
    img.at(4, 4) = 255;
    const Image smooth = img.boxFiltered(1);
    EXPECT_EQ(smooth.at(4, 4), 255 / 9);
    EXPECT_EQ(smooth.at(3, 3), 255 / 9);
    EXPECT_EQ(smooth.at(0, 0), 0);
}

TEST(IntegralImage, MatchesBruteForce)
{
    Rng rng(9);
    Image img(17, 13);
    for (int y = 0; y < 13; ++y)
        for (int x = 0; x < 17; ++x)
            img.at(x, y) = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    IntegralImage integral(img);
    for (int trial = 0; trial < 100; ++trial) {
        const int x0 = rng.uniformInt(0, 16);
        const int y0 = rng.uniformInt(0, 12);
        const int x1 = rng.uniformInt(x0, 17);
        const int y1 = rng.uniformInt(y0, 13);
        std::uint64_t expect = 0;
        for (int y = y0; y < y1; ++y)
            for (int x = x0; x < x1; ++x)
                expect += img.at(x, y);
        EXPECT_EQ(integral.rectSum(x0, y0, x1, y1), expect);
    }
}

TEST(IntegralImage, EmptyAndClampedRects)
{
    Image img(4, 4, 10);
    IntegralImage integral(img);
    EXPECT_EQ(integral.rectSum(2, 2, 2, 2), 0u);
    EXPECT_EQ(integral.rectSum(3, 3, 1, 1), 0u);
    EXPECT_EQ(integral.rectSum(-10, -10, 100, 100), 160u);
}

TEST(Image, BoxFilterMatchesSummedAreaReference)
{
    const TierGuard guard;
    for (const auto& [w, h] : {std::pair{1, 1}, {3, 2}, {5, 9}, {33, 17},
                              {97, 40}, {640, 24}}) {
        const Image img = noiseImage(w, h, 11 + w);
        const IntegralImage integral(img);
        for (const int radius : {1, 2, 3, 4, 8}) {
            Image want(w, h);
            for (int y = 0; y < h; ++y) {
                for (int x = 0; x < w; ++x) {
                    const int x0 = std::max(0, x - radius);
                    const int y0 = std::max(0, y - radius);
                    const int x1 = std::min(w, x + radius + 1);
                    const int y1 = std::min(h, y + radius + 1);
                    want.at(x, y) = static_cast<std::uint8_t>(
                        integral.rectSum(x0, y0, x1, y1) /
                        (static_cast<std::uint64_t>(x1 - x0) * (y1 - y0)));
                }
            }
            for (const std::string& tier : ad::availableIsaTiers()) {
                ASSERT_TRUE(ad::setIsaTier(tier));
                const Image got = img.boxFiltered(radius);
                ASSERT_TRUE(std::equal(got.data(), got.data() + got.size(),
                                       want.data()))
                    << tier << " " << w << "x" << h << " radius " << radius;
            }
        }
    }
}

TEST(Image, BoxFilterOfSaturatedImageIsExact)
{
    // All-255 windows are the largest sums the quotients see; every
    // window average must stay exactly 255.
    const TierGuard guard;
    const Image img(70, 30, 255);
    for (const std::string& tier : ad::availableIsaTiers()) {
        ASSERT_TRUE(ad::setIsaTier(tier));
        for (const int radius : {1, 2, 7, 8, 40}) {
            const Image got = img.boxFiltered(radius);
            EXPECT_TRUE(std::all_of(got.data(), got.data() + got.size(),
                                    [](std::uint8_t v) { return v == 255; }))
                << tier << " radius " << radius;
        }
    }
}

/** Per-pixel resize reference: sampleBilinear at every output pixel. */
Image
referenceResample(const Image& img, int outW, int outH, double x0,
                  double y0, double w, double h)
{
    Image out(outW, outH);
    for (int y = 0; y < outH; ++y) {
        const double srcY = y0 + (y + 0.5) / outH * h - 0.5;
        for (int x = 0; x < outW; ++x) {
            const double srcX = x0 + (x + 0.5) / outW * w - 0.5;
            out.at(x, y) = static_cast<std::uint8_t>(
                std::clamp(img.sampleBilinear(srcX, srcY), 0.0, 255.0));
        }
    }
    return out;
}

TEST(Image, ResizeMatchesPerPixelBilinear)
{
    const Image img = noiseImage(97, 61, 4);
    for (const auto& [w, h] : {std::pair{416, 416}, {533, 300}, {80, 50},
                              {33, 97}, {1, 1}, {97, 61}}) {
        // resized's source coordinate is (x + 0.5) * (W / w) - 0.5.
        Image want(w, h);
        const double sx = 97.0 / w;
        const double sy = 61.0 / h;
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                want.at(x, y) = static_cast<std::uint8_t>(std::clamp(
                    img.sampleBilinear((x + 0.5) * sx - 0.5,
                                       (y + 0.5) * sy - 0.5),
                    0.0, 255.0));
        const Image got = img.resized(w, h);
        ASSERT_TRUE(std::equal(got.data(), got.data() + got.size(),
                               want.data()))
            << w << "x" << h;
    }
}

TEST(Image, CropResizedMatchesPerPixelBilinear)
{
    const Image img = noiseImage(120, 80, 6);
    for (const BBox rect : {BBox(10.3, 5.7, 40.2, 30.9), BBox(-8, -4, 30, 20),
                            BBox(100, 60, 50, 50)}) {
        const Image want =
            referenceResample(img, 32, 24, rect.x, rect.y, rect.w, rect.h);
        const Image got = img.cropResized(rect, 32, 24);
        ASSERT_TRUE(std::equal(got.data(), got.data() + got.size(),
                               want.data()))
            << rect.x << "," << rect.y;
    }
}

} // namespace
