/**
 * @file
 * Tests for the INT8 quantized inference path: quantize/dequantize
 * round-trip bounds, histogram calibration behavior, exactness of the
 * SIMD int8 GEMM/GEMV against the naive reference, bitwise determinism
 * across thread counts, quantized-network accuracy against fp32, and
 * the detector/tracker-level accuracy floor the quant benchmark
 * enforces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/isa.hh"
#include "common/random.hh"
#include "detect/yolo.hh"
#include "nn/gemm_int8.hh"
#include "nn/quant.hh"
#include "sensors/camera.hh"
#include "track/goturn.hh"

namespace {

using namespace ad;
using namespace ad::nn;

std::vector<std::int8_t>
randomInt8(std::size_t n, Rng& rng)
{
    std::vector<std::int8_t> v(n);
    for (auto& x : v)
        x = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    return v;
}

std::vector<std::int16_t>
widen(const std::vector<std::int8_t>& v)
{
    return {v.begin(), v.end()};
}

TEST(Quant, ScaleDegeneratesToOneForEmptyRange)
{
    EXPECT_FLOAT_EQ(quantizeScale(0.0f), 1.0f);
    EXPECT_FLOAT_EQ(quantizeScale(-1.0f), 1.0f);
    EXPECT_FLOAT_EQ(quantizeScale(127.0f), 1.0f);
}

TEST(Quant, RoundTripErrorBoundedByHalfStep)
{
    Rng rng(11);
    const std::size_t n = 4096;
    std::vector<float> x(n);
    float absMax = 0.0f;
    for (auto& v : x) {
        v = static_cast<float>(rng.uniform(-3.0, 3.0));
        absMax = std::max(absMax, std::fabs(v));
    }
    const float scale = quantizeScale(absMax);
    std::vector<std::int8_t> q(n);
    std::vector<float> back(n);
    quantize(x.data(), n, scale, q.data());
    dequantize(q.data(), n, scale, back.data());
    // Round-to-nearest inside the covered range: error <= scale / 2.
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_LE(std::fabs(back[i] - x[i]), scale * 0.5f + 1e-6f)
            << "at " << i;
}

TEST(Quant, QuantizeSaturatesOutOfRangeValues)
{
    const float x[4] = {10.0f, -10.0f, 0.0f, 1.0f};
    std::int8_t q[4];
    quantize(x, 4, quantizeScale(1.0f), q);
    EXPECT_EQ(q[0], 127);
    EXPECT_EQ(q[1], -127);
    EXPECT_EQ(q[2], 0);
    EXPECT_EQ(q[3], 127);
}

TEST(Quant, RequantizeRescalesAccumulators)
{
    const std::int32_t acc[3] = {1000, -1000, 40};
    const float accScale = 0.01f;   // acc values represent 10, -10, 0.4
    const float outScale = 0.1f;    // expect 100, -100, 4
    std::int8_t q[3];
    requantize(acc, 3, accScale, outScale, q);
    EXPECT_EQ(q[0], 100);
    EXPECT_EQ(q[1], -100);
    EXPECT_EQ(q[2], 4);
}

TEST(AbsHistogram, GrowsRangeWithoutLosingMass)
{
    AbsHistogram h(64);
    std::vector<float> small(100, 0.5f);
    h.add(small.data(), small.size());
    const float big = 37.0f;
    h.add(&big, 1);
    EXPECT_EQ(h.count(), 101u);
    EXPECT_FLOAT_EQ(h.absMax(), 37.0f);
    EXPECT_FLOAT_EQ(h.percentileAbs(1.0f), 37.0f);
}

TEST(AbsHistogram, PercentileClipsOutliers)
{
    AbsHistogram h(1024);
    std::vector<float> bulk(999, 1.0f);
    h.add(bulk.data(), bulk.size());
    const float outlier = 100.0f;
    h.add(&outlier, 1);
    // 99.9% of the mass sits at 1.0; the percentile bound must stay
    // near it instead of surrendering the range to the outlier.
    EXPECT_LT(h.percentileAbs(0.999f), 2.0f);
    EXPECT_FLOAT_EQ(h.percentileAbs(1.0f), 100.0f);
}

TEST(GemmInt8, ReportsKnownIsa)
{
    const std::string isa = int8KernelIsa();
    EXPECT_TRUE(isa == "avx512vnni" || isa == "avx2" || isa == "sse2" ||
                isa == "scalar")
        << isa;
}

TEST(GemmInt8, TierListContainsCurrentAndScalar)
{
    const auto tiers = availableIsaTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), "scalar");
    EXPECT_NE(std::find(tiers.begin(), tiers.end(),
                        std::string(int8KernelIsa())),
              tiers.end());
}

TEST(GemmInt8, RejectsUnknownOrUnavailableForcedIsa)
{
    EXPECT_FALSE(setIsaTier("avx9000"));
    // Rejection must not disturb the ambient selection.
    const std::string isa = int8KernelIsa();
    EXPECT_TRUE(isa == "avx512vnni" || isa == "avx2" || isa == "sse2" ||
                isa == "scalar")
        << isa;
}

/**
 * The cross-ISA contract (satellite of the VNNI tier): every dispatch
 * tier the host can execute -- scalar, SSE2, AVX2, AVX-512-VNNI --
 * must produce bit-identical GEMM and GEMV results. Integer sums are
 * exact, and the VNNI tier's +128 bias trick is corrected with exact
 * integer math, so equality is required, not approximate.
 */
TEST(GemmInt8, AllAvailableTiersAgreeBitwise)
{
    Rng rng(97);
    const std::tuple<int, int, int> shapes[] = {
        {65, 33, 257}, {64, 64, 256}, {16, 169, 144}, {7, 5, 3}};
    for (const auto& [m, n, k] : shapes) {
        const auto a = randomInt8(
            static_cast<std::size_t>(m) * k, rng);
        const auto b = randomInt8(
            static_cast<std::size_t>(n) * k, rng);
        const auto aw = widen(a);
        const std::size_t mn = static_cast<std::size_t>(m) * n;

        std::vector<std::int32_t> ref(mn, 0);
        gemmInt8Naive(m, n, k, a.data(), b.data(), ref.data());

        std::vector<std::int32_t> refVec(static_cast<std::size_t>(m),
                                         0);
        const auto xw = widen(randomInt8(
            static_cast<std::size_t>(k), rng));
        // gemv reference: scalar dot per row.
        for (int i = 0; i < m; ++i) {
            std::int32_t acc = 0;
            for (int kk = 0; kk < k; ++kk)
                acc += static_cast<std::int32_t>(aw[i * k + kk]) *
                       xw[kk];
            refVec[static_cast<std::size_t>(i)] = acc;
        }

        for (const std::string& tier : availableIsaTiers()) {
            ASSERT_TRUE(setIsaTier(tier)) << tier;
            ASSERT_STREQ(int8KernelIsa(), tier.c_str());
            std::vector<std::int32_t> got(mn, 0);
            gemmInt8(m, n, k, aw.data(), b.data(), got.data());
            ASSERT_EQ(got, ref)
                << "gemm tier " << tier << " shape " << m << "x" << n
                << "x" << k;
            std::vector<std::int32_t> gotVec(
                static_cast<std::size_t>(m), 0);
            gemvInt8(m, k, aw.data(), xw.data(), gotVec.data());
            ASSERT_EQ(gotVec, refVec)
                << "gemv tier " << tier << " shape " << m << "x" << k;
        }
        ASSERT_TRUE(setIsaTier(""));
    }
}

/** Shape sweep: the SIMD kernel must match the reference bit for bit. */
class GemmInt8ShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmInt8ShapeTest, MatchesNaiveExactly)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 73 + n * 7 + k));
    const auto a = randomInt8(static_cast<std::size_t>(m) * k, rng);
    const auto b = randomInt8(static_cast<std::size_t>(k) * n, rng);
    const auto aWide = widen(a);
    std::vector<std::int32_t> c1(static_cast<std::size_t>(m) * n, 3);
    std::vector<std::int32_t> c2 = c1;
    gemmInt8(m, n, k, aWide.data(), b.data(), c1.data());
    gemmInt8Naive(m, n, k, a.data(), b.data(), c2.data());
    for (std::size_t i = 0; i < c1.size(); ++i)
        ASSERT_EQ(c1[i], c2[i]) << "at " << i;
}

TEST_P(GemmInt8ShapeTest, BitwiseDeterministicAcrossThreads)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 131 + n * 17 + k));
    const auto a = randomInt8(static_cast<std::size_t>(m) * k, rng);
    const auto b = randomInt8(static_cast<std::size_t>(k) * n, rng);
    const auto aWide = widen(a);
    std::vector<std::int32_t> serial(static_cast<std::size_t>(m) * n,
                                     -7);
    gemmInt8(m, n, k, aWide.data(), b.data(), serial.data());
    for (const int threads : {1, 2, 8}) {
        std::vector<std::int32_t> parallel(serial.size(), -7);
        gemmInt8(m, n, k, aWide.data(), b.data(), parallel.data(),
                 kernelContext(threads));
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial[i], parallel[i])
                << "divergence at " << i << " with " << threads
                << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmInt8ShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(1, 64, 300),
                      std::make_tuple(64, 1, 300), std::make_tuple(3, 5, 7),
                      std::make_tuple(65, 33, 257), // crosses pad edges
                      std::make_tuple(64, 64, 256), // exactly padded
                      std::make_tuple(128, 10, 512),
                      std::make_tuple(16, 169, 144))); // conv-like

TEST(GemvInt8, MatchesGemmAndParallel)
{
    Rng rng(10);
    const std::size_t m = 301;
    const std::size_t k = 517;
    const auto a = randomInt8(m * k, rng);
    const auto x = randomInt8(k, rng);
    const auto aWide = widen(a);
    const auto xWide = widen(x);

    std::vector<std::int32_t> viaGemm(m, 5);
    gemmInt8(m, 1, k, aWide.data(), x.data(), viaGemm.data());
    std::vector<std::int32_t> serial(m, 5);
    gemvInt8(m, k, aWide.data(), xWide.data(), serial.data());
    for (std::size_t i = 0; i < m; ++i)
        ASSERT_EQ(serial[i], viaGemm[i]) << "at " << i;

    for (const int threads : {2, 8}) {
        std::vector<std::int32_t> parallel(m, 5);
        gemvInt8(m, k, aWide.data(), xWide.data(), parallel.data(),
                 kernelContext(threads));
        for (std::size_t i = 0; i < m; ++i)
            ASSERT_EQ(serial[i], parallel[i]) << "at " << i;
    }
}

/** Random conv with a quantized twin: outputs agree within tolerance. */
TEST(QuantLayers, ConvTracksFp32Reference)
{
    Rng rng(21);
    Conv2D conv("c", 3, 8, 3, 1, 1);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : conv.bias())
        b = static_cast<float>(rng.uniform(-0.1, 0.1));
    Tensor in(3, 17, 19);
    float absMax = 0.0f;
    for (std::size_t i = 0; i < in.size(); ++i) {
        in.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
        absMax = std::max(absMax, std::fabs(in.data()[i]));
    }
    QuantConv2D quant(conv, quantizeScale(absMax));
    const Tensor ref = conv.forward(in);
    const Tensor got = quant.forward(in);
    ASSERT_EQ(ref.size(), got.size());
    double refNorm = 0, errNorm = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const double e = got.data()[i] - ref.data()[i];
        refNorm += ref.data()[i] * ref.data()[i];
        errNorm += e * e;
    }
    // Documented tolerance: int8 conv within 2% relative L2 error of
    // the fp32 reference at per-channel weight scales.
    EXPECT_LT(std::sqrt(errNorm / refNorm), 0.02);
}

TEST(QuantLayers, QuantConvProfileShrinksWeights)
{
    Conv2D conv("c", 4, 8, 3, 1, 1);
    QuantConv2D quant(conv, 1.0f);
    const Shape in{4, 16, 16};
    EXPECT_EQ(quant.profile(in).flops, conv.profile(in).flops);
    EXPECT_LT(quant.profile(in).weightBytes,
              conv.profile(in).weightBytes);
}

TEST(QuantNetwork, QuantizeReplacesConvAndFcLayers)
{
    Rng rng(31);
    Network net("toy");
    auto& conv = net.add<Conv2D>("conv", 1, 4, 3, 1, 1);
    net.add<Activation>("relu", 0.1f);
    net.add<MaxPool>("pool", 2, 2);
    auto& fc = net.add<FullyConnected>("fc", 4 * 8 * 8, 10);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& w : fc.weights())
        w = static_cast<float>(rng.uniform(-0.1, 0.1));

    std::vector<Tensor> samples;
    for (int s = 0; s < 2; ++s) {
        Tensor t(1, 16, 16);
        for (std::size_t i = 0; i < t.size(); ++i)
            t.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
        samples.push_back(std::move(t));
    }

    Network quantNet("toy");
    auto& qconv = quantNet.add<Conv2D>("conv", 1, 4, 3, 1, 1);
    net.add<Softmax>("sm"); // keep shapes identical below
    quantNet.add<Activation>("relu", 0.1f);
    quantNet.add<MaxPool>("pool", 2, 2);
    auto& qfc = quantNet.add<FullyConnected>("fc", 4 * 8 * 8, 10);
    quantNet.add<Softmax>("sm");
    qconv.weights() = conv.weights();
    qfc.weights() = fc.weights();

    EXPECT_EQ(quantNet.precision(), Precision::Fp32);
    const std::size_t replaced = quantizeNetwork(quantNet, samples);
    EXPECT_EQ(replaced, 2u);
    EXPECT_EQ(quantNet.precision(), Precision::Int8);

    const Tensor ref = net.forward(samples[0]);
    const Tensor got = quantNet.forward(samples[0]);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_NEAR(ref.data()[i], got.data()[i], 0.05) << "at " << i;
}

TEST(QuantNetwork, ForwardBitwiseDeterministicAcrossThreads)
{
    Rng rng(41);
    Network net("toy");
    auto& conv = net.add<Conv2D>("conv", 1, 8, 3, 1, 1);
    net.add<Activation>("relu", 0.1f);
    auto& fc = net.add<FullyConnected>("fc", 8 * 16 * 16, 12);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& w : fc.weights())
        w = static_cast<float>(rng.uniform(-0.1, 0.1));

    std::vector<Tensor> samples;
    Tensor input(1, 16, 16);
    for (std::size_t i = 0; i < input.size(); ++i)
        input.data()[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    samples.push_back(input);
    quantizeNetwork(net, samples);

    const Tensor serial = net.forward(input);
    for (const int threads : {1, 2, 8}) {
        const Tensor parallel =
            net.forward(input, kernelContext(threads));
        ASSERT_EQ(serial.size(), parallel.size());
        ASSERT_EQ(std::memcmp(serial.data(), parallel.data(),
                              serial.size() * sizeof(float)),
                  0)
            << "int8 forward diverged at " << threads << " threads";
    }
}

/**
 * The detector-level accuracy floor enforced by
 * bench_ext_quant_accuracy: for a rendered scene, every fp32 detection
 * must have an int8 counterpart with IoU >= 0.98 (<= 2% degradation)
 * and vice versa.
 */
TEST(QuantDetector, Int8StaysWithinAccuracyFloor)
{
    sensors::World world;
    sensors::Actor a;
    a.cls = sensors::ObjectClass::Vehicle;
    a.motion = sensors::MotionKind::Stationary;
    a.pose = Pose2(65.0, world.road().laneCenter(1), 0.0);
    world.addActor(a);
    sensors::Camera camera(sensors::Resolution::HHD);
    const auto frame = camera.render(
        world, Pose2(50.0, world.road().laneCenter(1), 0));

    detect::DetectorParams dp;
    dp.inputSize = 160;
    detect::YoloDetector fp32(dp);
    dp.precision = Precision::Int8;
    detect::YoloDetector int8(dp);

    const auto refDets = fp32.detect(frame.image);
    const auto quantDets = int8.detect(frame.image);
    ASSERT_FALSE(refDets.empty());
    ASSERT_EQ(refDets.size(), quantDets.size());
    for (const auto& ref : refDets) {
        double best = 0;
        for (const auto& q : quantDets)
            best = std::max(best, ref.box.iou(q.box));
        EXPECT_GE(best, 0.98);
    }
}

TEST(QuantDetector, DeterministicAcrossThreadCounts)
{
    sensors::World world;
    sensors::Actor a;
    a.cls = sensors::ObjectClass::Vehicle;
    a.motion = sensors::MotionKind::Stationary;
    a.pose = Pose2(62.0, world.road().laneCenter(1), 0.0);
    world.addActor(a);
    sensors::Camera camera(sensors::Resolution::HHD);
    const auto frame = camera.render(
        world, Pose2(50.0, world.road().laneCenter(1), 0));

    detect::DetectorParams dp;
    dp.inputSize = 160;
    dp.precision = Precision::Int8;
    dp.threads = 1;
    detect::YoloDetector serial(dp);
    const auto ref = serial.detect(frame.image);

    for (const int threads : {2, 8}) {
        dp.threads = threads;
        detect::YoloDetector parallel(dp);
        const auto got = parallel.detect(frame.image);
        ASSERT_EQ(ref.size(), got.size()) << threads << " threads";
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_DOUBLE_EQ(ref[i].box.x, got[i].box.x);
            EXPECT_DOUBLE_EQ(ref[i].box.y, got[i].box.y);
            EXPECT_DOUBLE_EQ(ref[i].box.w, got[i].box.w);
            EXPECT_DOUBLE_EQ(ref[i].box.h, got[i].box.h);
            EXPECT_DOUBLE_EQ(ref[i].confidence, got[i].confidence);
        }
    }
}

/** TRA: int8 tracker stays within 2 px of the fp32 center estimate. */
TEST(QuantTracker, CenterStaysNearFp32)
{
    sensors::World world;
    sensors::Actor a;
    a.cls = sensors::ObjectClass::Vehicle;
    a.motion = sensors::MotionKind::Stationary;
    a.pose = Pose2(62.0, world.road().laneCenter(1), 0.0);
    world.addActor(a);
    sensors::Camera camera(sensors::Resolution::HHD);
    const auto frame0 = camera.render(
        world, Pose2(50.0, world.road().laneCenter(1), 0));
    const auto frame1 = camera.render(
        world, Pose2(50.5, world.road().laneCenter(1), 0));
    ASSERT_FALSE(frame0.truth.empty());

    track::TrackerParams tp;
    track::GoturnTracker fp32(tp);
    tp.precision = Precision::Int8;
    track::GoturnTracker int8(tp);

    fp32.init(frame0.image, frame0.truth[0].box);
    int8.init(frame0.image, frame0.truth[0].box);
    const BBox refBox = fp32.track(frame1.image);
    const BBox quantBox = int8.track(frame1.image);
    EXPECT_NEAR(refBox.cx(), quantBox.cx(), 2.0);
    EXPECT_NEAR(refBox.cy(), quantBox.cy(), 2.0);
}

} // namespace
