/**
 * @file
 * Tests for the ORB feature-extraction substrate: LUT trigonometry vs
 * libm, FAST segment test on synthetic corners, Harris ranking,
 * orientation, rBRIEF descriptor invariances, pyramid extraction,
 * descriptor matching, and the cross-tier contract: every ISA tier's
 * detector, extractor and Hamming distance equal the scalar tier's
 * bit for bit.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "common/isa.hh"
#include "common/random.hh"
#include "sensors/camera.hh"
#include "sensors/scenario.hh"
#include "vision/orb.hh"

namespace {

using namespace ad::vision;
using ad::Image;
using ad::Rng;

/** Render a bright axis-aligned square on a dark background. */
Image
squareImage(int size, int x0, int y0, int side)
{
    Image img(size, size, 40);
    img.fillRect(ad::BBox(x0, y0, side, side), 220);
    return img;
}

/** Add uniform noise so FAST has texture to work with. */
void
addNoise(Image& img, Rng& rng, int amplitude)
{
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x) {
            const int v = img.at(x, y) + rng.uniformInt(-amplitude,
                                                        amplitude);
            img.at(x, y) = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
        }
}

TEST(LutTrig, BinRoundTrip)
{
    const TrigTables& t = TrigTables::instance();
    for (int bin = 0; bin < kOrientationBins; ++bin) {
        EXPECT_EQ(TrigTables::binOf(t.angleOf(bin)), bin);
        EXPECT_NEAR(t.sinOf(bin), std::sin(t.angleOf(bin)), 1e-6);
        EXPECT_NEAR(t.cosOf(bin), std::cos(t.angleOf(bin)), 1e-6);
    }
}

TEST(LutTrig, Atan2BinMatchesNaiveWithinOneBin)
{
    const TrigTables& t = TrigTables::instance();
    Rng rng(5);
    int mismatchedByMore = 0;
    for (int i = 0; i < 2000; ++i) {
        const float x = static_cast<float>(rng.uniform(-100, 100));
        const float y = static_cast<float>(rng.uniform(-100, 100));
        const int lut = t.atan2Bin(y, x);
        const int naive = naiveAtan2Bin(y, x);
        const int diff = std::abs(lut - naive);
        const int circDiff = std::min(diff, kOrientationBins - diff);
        if (circDiff > 1)
            ++mismatchedByMore;
    }
    // The LUT quantization may flip a borderline angle into the
    // neighboring bin but never further.
    EXPECT_EQ(mismatchedByMore, 0);
}

TEST(LutTrig, Atan2BinQuadrants)
{
    const TrigTables& t = TrigTables::instance();
    EXPECT_EQ(t.atan2Bin(0.0f, 1.0f), 0);                       // +x
    EXPECT_EQ(t.atan2Bin(1.0f, 0.0f), kOrientationBins / 4);    // +y
    EXPECT_EQ(t.atan2Bin(0.0f, -1.0f), kOrientationBins / 2);   // -x
    EXPECT_EQ(t.atan2Bin(-1.0f, 0.0f), 3 * kOrientationBins / 4);
    EXPECT_EQ(t.atan2Bin(0.0f, 0.0f), 0); // degenerate input
}

TEST(Fast, DetectsSquareCorners)
{
    Image img = squareImage(64, 24, 24, 16);
    FastParams params;
    params.threshold = 30;
    const auto kps = detectFast(img, params);
    ASSERT_FALSE(kps.empty());
    // Every detection should be near one of the four square corners.
    for (const auto& kp : kps) {
        const double dx1 = std::min(std::abs(kp.x - 24), std::abs(kp.x - 40));
        const double dy1 = std::min(std::abs(kp.y - 24), std::abs(kp.y - 40));
        EXPECT_LT(dx1, 5.0);
        EXPECT_LT(dy1, 5.0);
    }
}

TEST(Fast, FlatImageHasNoCorners)
{
    Image img(64, 64, 128);
    FastParams params;
    const auto kps = detectFast(img, params);
    EXPECT_TRUE(kps.empty());
}

TEST(Fast, SegmentTestNeedsContiguousArc)
{
    // A single bright pixel at the circle is not a corner; a bright
    // half-plane is.
    Image img(16, 16, 100);
    EXPECT_FALSE(fastSegmentTest(img, 8, 8, 20));
    for (int y = 0; y < 16; ++y)
        for (int x = 9; x < 16; ++x)
            img.at(x, y) = 200;
    // Center pixel on the dark side, right half bright -> arc of
    // brighter pixels spans ~7 of 16... extend to a corner shape.
    for (int y = 9; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            img.at(x, y) = 200;
    EXPECT_TRUE(fastSegmentTest(img, 8, 8, 20));
}

TEST(Fast, ThresholdSweepMonotone)
{
    Rng rng(17);
    Image img = squareImage(96, 30, 30, 30);
    addNoise(img, rng, 8);
    std::size_t prev = SIZE_MAX;
    for (int threshold : {10, 25, 45, 70}) {
        FastParams params;
        params.threshold = threshold;
        params.cellSize = 4;
        const auto kps = detectFast(img, params);
        EXPECT_LE(kps.size(), prev) << "threshold " << threshold;
        prev = kps.size();
    }
}

TEST(Fast, OpCountsAccumulate)
{
    Image img = squareImage(64, 20, 20, 24);
    FastParams params;
    FastOpCounts counts;
    detectFast(img, params, &counts);
    EXPECT_GT(counts.pixelsTested, 0u);
    EXPECT_GE(counts.candidates, counts.keypoints);
    const auto before = counts.pixelsTested;
    detectFast(img, params, &counts);
    EXPECT_EQ(counts.pixelsTested, 2 * before);
}

TEST(Harris, CornerBeatsEdgeAndFlat)
{
    Image img = squareImage(64, 24, 24, 16);
    const float corner = harrisResponse(img, 24, 24);
    const float edge = harrisResponse(img, 32, 24);   // on the top edge
    const float flat = harrisResponse(img, 10, 10);
    EXPECT_GT(corner, edge);
    EXPECT_GT(corner, flat);
    EXPECT_NEAR(flat, 0.0f, 1.0f);
}

TEST(Orientation, PointsTowardBrightMass)
{
    // Bright half-plane to the right: centroid points along +x (bin 0).
    Image img(64, 64, 30);
    for (int y = 0; y < 64; ++y)
        for (int x = 32; x < 64; ++x)
            img.at(x, y) = 220;
    const int bin = intensityCentroidBin(img, 32, 32, TrigMode::Lut);
    EXPECT_EQ(bin, 0);
    // Bright below: +y direction.
    Image img2(64, 64, 30);
    for (int y = 32; y < 64; ++y)
        for (int x = 0; x < 64; ++x)
            img2.at(x, y) = 220;
    EXPECT_EQ(intensityCentroidBin(img2, 32, 32, TrigMode::Lut),
              kOrientationBins / 4);
}

TEST(Orientation, LutAndNaiveAgree)
{
    Rng rng(23);
    Image img(64, 64);
    addNoise(img, rng, 120);
    int disagreements = 0;
    for (int i = 0; i < 50; ++i) {
        const int x = rng.uniformInt(16, 48);
        const int y = rng.uniformInt(16, 48);
        const int a = intensityCentroidBin(img, x, y, TrigMode::Lut);
        const int b = intensityCentroidBin(img, x, y, TrigMode::Naive);
        const int diff = std::abs(a - b);
        if (std::min(diff, kOrientationBins - diff) > 1)
            ++disagreements;
    }
    EXPECT_EQ(disagreements, 0);
}

TEST(Brief, DescriptorDeterministic)
{
    Rng rng(31);
    Image img(64, 64);
    addNoise(img, rng, 120);
    Keypoint kp;
    kp.x = 32;
    kp.y = 32;
    kp.orientationBin = 3;
    const Descriptor d1 = describeKeypoint(img, kp);
    const Descriptor d2 = describeKeypoint(img, kp);
    EXPECT_EQ(d1, d2);
    EXPECT_EQ(d1.hamming(d2), 0);
}

TEST(Brief, DistinctPatchesDiffer)
{
    Rng rng(32);
    Image img(128, 64);
    addNoise(img, rng, 120);
    Keypoint a;
    a.x = 32;
    a.y = 32;
    Keypoint b;
    b.x = 96;
    b.y = 32;
    const Descriptor da = describeKeypoint(img, a);
    const Descriptor db = describeKeypoint(img, b);
    // Random texture: expect near-50% bit disagreement.
    EXPECT_GT(da.hamming(db), 60);
}

TEST(Brief, HammingProperties)
{
    Descriptor zero;
    Descriptor ones;
    ones.words = {~0ULL, ~0ULL, ~0ULL, ~0ULL};
    EXPECT_EQ(zero.hamming(ones), 256);
    EXPECT_EQ(zero.hamming(zero), 0);
    Descriptor one;
    one.words = {1, 0, 0, 0};
    EXPECT_EQ(zero.hamming(one), 1);
    EXPECT_EQ(one.hamming(zero), 1);
}

TEST(Brief, RotationInvarianceOnRotatedPatch)
{
    // Describe a textured patch, then rotate the image 90 degrees and
    // describe the same physical point with the rotated orientation:
    // descriptors should be much closer than chance (~128 bits).
    Rng rng(33);
    Image img(65, 65);
    addNoise(img, rng, 120);
    img = img.boxFiltered(1); // correlated texture survives rotation

    // Rotate image content by -90 degrees: (x, y) -> (y, w-1-x); the
    // intensity-centroid orientation of the same physical point drops
    // by a quarter turn, i.e.\ bin 0 -> bin 24.
    Image rot(65, 65);
    for (int y = 0; y < 65; ++y)
        for (int x = 0; x < 65; ++x)
            rot.at(y, 64 - x) = img.at(x, y);

    Keypoint kp;
    kp.x = 32;
    kp.y = 32;
    kp.orientationBin = 0;
    const Descriptor d0 = describeKeypoint(img, kp);
    Keypoint kpRot;
    kpRot.x = 32;
    kpRot.y = 32;
    kpRot.orientationBin = 3 * kOrientationBins / 4;
    const Descriptor d90 = describeKeypoint(rot, kpRot);
    EXPECT_LT(d0.hamming(d90), 70);
}

TEST(Orb, ExtractsFeaturesWithLevel0Coordinates)
{
    Rng rng(41);
    Image img = squareImage(256, 100, 100, 60);
    addNoise(img, rng, 6);
    OrbExtractor orb;
    OrbProfile profile;
    const auto features = orb.extract(img, &profile);
    ASSERT_GT(features.size(), 4u);
    for (const auto& f : features) {
        EXPECT_GE(f.kp.x, 0);
        EXPECT_LT(f.kp.x, 256);
        EXPECT_GE(f.kp.y, 0);
        EXPECT_LT(f.kp.y, 256);
    }
    EXPECT_GT(profile.pixelsProcessed, 256u * 256u); // pyramid > level 0
    EXPECT_EQ(profile.brief.descriptors, features.size());
    EXPECT_EQ(profile.brief.binaryTests, features.size() * 256u);
}

TEST(Orb, MatcherFindsIdentityMatches)
{
    Rng rng(42);
    Image img(256, 128);
    addNoise(img, rng, 120);
    img = img.boxFiltered(1);
    OrbExtractor orb;
    const auto features = orb.extract(img);
    ASSERT_GT(features.size(), 10u);
    std::vector<Descriptor> descs;
    for (const auto& f : features)
        descs.push_back(f.desc);
    const auto matches = matchDescriptors(descs, descs, 64, 1.01);
    // Self-matching: every descriptor matches itself at distance 0.
    ASSERT_EQ(matches.size(), descs.size());
    for (const auto& m : matches) {
        EXPECT_EQ(m.indexA, m.indexB);
        EXPECT_EQ(m.distance, 0);
    }
}

TEST(Orb, MatcherRespectsMaxDistance)
{
    std::vector<Descriptor> a(1);
    std::vector<Descriptor> b(1);
    b[0].words = {~0ULL, ~0ULL, 0, 0}; // distance 128
    EXPECT_TRUE(matchDescriptors(a, b, 64, 0.8).empty());
    EXPECT_EQ(matchDescriptors(a, b, 200, 0.8).size(), 1u);
}

TEST(Orb, MatcherEmptyInputs)
{
    std::vector<Descriptor> a(3);
    std::vector<Descriptor> none;
    EXPECT_TRUE(matchDescriptors(a, none).empty());
    EXPECT_TRUE(matchDescriptors(none, a).empty());
}

// ------------------------------------------------------ cross-tier

/** Restores the ambient ISA tier when a cross-tier test ends. */
struct TierGuard
{
    ~TierGuard() { ad::setIsaTier(""); }
};

/** Seeded uniform-noise image: dense FAST responses at every level. */
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

/** Two rendered urban HHD frames, a few metres apart. */
std::vector<Image>
urbanFrames()
{
    Rng rng(3);
    ad::sensors::ScenarioParams sp;
    sp.roadLength = 200;
    const ad::sensors::Scenario sc = ad::sensors::makeUrbanScenario(rng, sp);
    const ad::sensors::Camera camera(ad::sensors::Resolution::HHD);
    ad::sensors::World world = sc.world;
    ad::Pose2 ego = sc.ego.pose;
    std::vector<Image> frames;
    for (int i = 0; i < 2; ++i) {
        world.step(0.5);
        ego.pos.x += sc.ego.speed * 0.5;
        frames.push_back(camera.render(world, ego).image);
    }
    return frames;
}

/** Field-by-field keypoint equality, floats compared by their bits. */
void
expectSameKeypoints(const std::vector<Keypoint>& want,
                    const std::vector<Keypoint>& got, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const Keypoint& a = want[i];
        const Keypoint& b = got[i];
        ASSERT_EQ(std::bit_cast<std::uint32_t>(b.x),
                  std::bit_cast<std::uint32_t>(a.x))
            << what << " keypoint " << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(b.y),
                  std::bit_cast<std::uint32_t>(a.y))
            << what << " keypoint " << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(b.response),
                  std::bit_cast<std::uint32_t>(a.response))
            << what << " keypoint " << i;
        ASSERT_EQ(b.orientationBin, a.orientationBin)
            << what << " keypoint " << i;
        ASSERT_EQ(b.level, a.level) << what << " keypoint " << i;
    }
}

void
expectSameCounts(const FastOpCounts& want, const FastOpCounts& got,
                 const std::string& what)
{
    EXPECT_EQ(got.pixelsTested, want.pixelsTested) << what;
    EXPECT_EQ(got.candidates, want.candidates) << what;
    EXPECT_EQ(got.keypoints, want.keypoints) << what;
}

TEST(CrossTier, DetectFastMatchesScalarOnNoise)
{
    const TierGuard guard;
    for (const int width : {33, 97, 640}) {
        const Image img = noiseImage(width, 48, 100 + width);
        for (const int threshold : {-1, 0, 1, 20, 254, 255, 300}) {
            FastParams fp;
            fp.threshold = threshold;
            fp.maxKeypoints = 100000;
            fp.cellSize = 1; // keep every candidate: no NMS masking
            ASSERT_TRUE(ad::setIsaTier("scalar"));
            FastOpCounts wantCounts;
            const auto want = detectFast(img, fp, &wantCounts);
            for (const std::string& tier : ad::availableIsaTiers()) {
                ASSERT_TRUE(ad::setIsaTier(tier));
                const std::string what = tier + " width " +
                                         std::to_string(width) + " t " +
                                         std::to_string(threshold);
                FastOpCounts gotCounts;
                expectSameKeypoints(want, detectFast(img, fp, &gotCounts),
                                    what);
                expectSameCounts(wantCounts, gotCounts, what);
            }
        }
    }
}

TEST(CrossTier, DetectFastAgreesWithThePerPixelFunctions)
{
    // Every keypoint passes the public segment test and carries the
    // clamped-reader Harris response and orientation, at every tier:
    // this pins the raw-pointer and SSE2 Harris paths to harrisResponse.
    const TierGuard guard;
    const Image img = noiseImage(97, 64, 5);
    FastParams fp;
    fp.maxKeypoints = 100000;
    fp.cellSize = 1;
    for (const std::string& tier : ad::availableIsaTiers()) {
        ASSERT_TRUE(ad::setIsaTier(tier));
        const auto kps = detectFast(img, fp);
        ASSERT_FALSE(kps.empty()) << tier;
        for (const Keypoint& kp : kps) {
            const int x = static_cast<int>(kp.x);
            const int y = static_cast<int>(kp.y);
            ASSERT_TRUE(fastSegmentTest(img, x, y, fp.threshold)) << tier;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(kp.response),
                      std::bit_cast<std::uint32_t>(harrisResponse(img, x, y)))
                << tier << " at " << x << "," << y;
            ASSERT_EQ(kp.orientationBin,
                      intensityCentroidBin(img, x, y, fp.trigMode))
                << tier << " at " << x << "," << y;
        }
    }
}

TEST(CrossTier, ExtractMatchesScalar)
{
    const TierGuard guard;
    std::vector<Image> inputs = urbanFrames();
    for (const int width : {33, 97, 640})
        inputs.push_back(noiseImage(width, 120, 7 + width));
    const OrbExtractor orb;
    for (std::size_t n = 0; n < inputs.size(); ++n) {
        ASSERT_TRUE(ad::setIsaTier("scalar"));
        OrbProfile wantProfile;
        const auto want = orb.extract(inputs[n], &wantProfile);
        if (n < 2) {
            ASSERT_GT(want.size(), 50u) << "urban frame " << n;
        }
        std::vector<Keypoint> wantKps;
        for (const Feature& f : want)
            wantKps.push_back(f.kp);
        for (const std::string& tier : ad::availableIsaTiers()) {
            ASSERT_TRUE(ad::setIsaTier(tier));
            const std::string what = tier + " input " + std::to_string(n);
            OrbProfile gotProfile;
            const auto got = orb.extract(inputs[n], &gotProfile);
            std::vector<Keypoint> gotKps;
            for (const Feature& f : got)
                gotKps.push_back(f.kp);
            expectSameKeypoints(wantKps, gotKps, what);
            for (std::size_t i = 0; i < want.size(); ++i)
                ASSERT_EQ(got[i].desc, want[i].desc)
                    << what << " descriptor " << i;
            EXPECT_EQ(gotProfile.pixelsProcessed,
                      wantProfile.pixelsProcessed)
                << what;
            expectSameCounts(wantProfile.fast, gotProfile.fast, what);
            EXPECT_EQ(gotProfile.brief.binaryTests,
                      wantProfile.brief.binaryTests)
                << what;
        }
    }
}

TEST(CrossTier, HammingMatchesScalar)
{
    const TierGuard guard;
    Rng rng(77);
    std::vector<Descriptor> descs(64);
    for (auto& d : descs)
        for (auto& w : d.words)
            w = rng();
    descs[1].words = {~0ULL, ~0ULL, ~0ULL, ~0ULL};
    ASSERT_TRUE(ad::setIsaTier("scalar"));
    std::vector<int> want;
    for (const auto& a : descs)
        for (const auto& b : descs)
            want.push_back(a.hamming(b));
    EXPECT_EQ(descs[0].hamming(descs[0]), 0);
    for (const std::string& tier : ad::availableIsaTiers()) {
        ASSERT_TRUE(ad::setIsaTier(tier));
        std::size_t k = 0;
        for (const auto& a : descs)
            for (const auto& b : descs)
                ASSERT_EQ(a.hamming(b), want[k++]) << tier;
    }
}

} // namespace
