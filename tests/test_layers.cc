/**
 * @file
 * Tests for the layer zoo: convolution against a direct reference,
 * pooling, activations, fully connected layers, shape propagation and
 * the FLOP/byte profiles the accelerator models rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/isa.hh"
#include "common/random.hh"
#include "nn/fusion.hh"
#include "nn/layers.hh"
#include "nn/models.hh"
#include "nn/network.hh"
#include "nn_reference.hh"

namespace {

using namespace ad::nn;
using ad::Rng;

Tensor
randomTensor(int c, int h, int w, Rng& rng)
{
    Tensor t(c, h, w);
    for (int ci = 0; ci < c; ++ci)
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                t.at(ci, y, x) = static_cast<float>(rng.uniform(-1, 1));
    return t;
}

/** Direct (definition-based) convolution for validation. */
Tensor
convReference(const Conv2D& conv, const Tensor& in)
{
    const Shape outShape =
        conv.outputShape({in.channels(), in.height(), in.width()});
    Tensor out(outShape.c, outShape.h, outShape.w);
    const int k = conv.kernel();
    for (int oc = 0; oc < outShape.c; ++oc) {
        for (int oy = 0; oy < outShape.h; ++oy) {
            for (int ox = 0; ox < outShape.w; ++ox) {
                float acc = conv.bias()[oc];
                for (int ic = 0; ic < in.channels(); ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        for (int kx = 0; kx < k; ++kx) {
                            const int iy = oy * conv.stride() - conv.pad() +
                                           ky;
                            const int ix = ox * conv.stride() - conv.pad() +
                                           kx;
                            if (iy < 0 || iy >= in.height() || ix < 0 ||
                                ix >= in.width())
                                continue;
                            const std::size_t wi =
                                ((static_cast<std::size_t>(oc) *
                                  in.channels() + ic) * k + ky) * k + kx;
                            acc += conv.weights()[wi] * in.at(ic, iy, ix);
                        }
                    }
                }
                out.at(oc, oy, ox) = acc;
            }
        }
    }
    return out;
}

struct ConvCase
{
    int inC, outC, k, stride, pad, h, w;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParamTest, MatchesDirectConvolution)
{
    const auto p = GetParam();
    Rng rng(p.inC * 131 + p.outC * 17 + p.k);
    Conv2D conv("c", p.inC, p.outC, p.k, p.stride, p.pad);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : conv.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(p.inC, p.h, p.w, rng);
    const Tensor fast = conv.forward(in);
    const Tensor ref = convReference(conv, in);
    ASSERT_EQ(fast.size(), ref.size());
    for (int c = 0; c < ref.channels(); ++c)
        for (int y = 0; y < ref.height(); ++y)
            for (int x = 0; x < ref.width(); ++x)
                ASSERT_NEAR(fast.at(c, y, x), ref.at(c, y, x), 1e-3)
                    << c << "," << y << "," << x;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParamTest,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5, 5},
                      ConvCase{1, 4, 3, 1, 1, 8, 8},
                      ConvCase{3, 8, 3, 1, 1, 13, 17},
                      ConvCase{4, 2, 5, 1, 2, 11, 9},
                      ConvCase{2, 6, 3, 2, 1, 16, 16},
                      ConvCase{8, 8, 1, 1, 0, 7, 7},
                      ConvCase{1, 2, 11, 4, 0, 23, 23}));  // AlexNet-like

TEST(Conv2D, ParallelForwardBitwiseEqualsSerial)
{
    // The kernel-layer determinism contract at the layer level: a
    // parallel context must not change a single output bit.
    Rng rng(77);
    Conv2D conv("c", 8, 16, 3, 1, 1);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : conv.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(8, 29, 31, rng);
    const Tensor serial = conv.forward(in);
    for (const int threads : {2, 4, 8}) {
        const Tensor parallel = conv.forward(in, kernelContext(threads));
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            ASSERT_EQ(serial.data()[i], parallel.data()[i])
                << "bitwise divergence at " << i << " with " << threads
                << " threads";
    }
}

TEST(FullyConnected, ParallelForwardBitwiseEqualsSerial)
{
    Rng rng(78);
    FullyConnected fc("fc", 257, 131);
    for (auto& w : fc.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : fc.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(257, 1, 1, rng);
    const Tensor serial = fc.forward(in);
    const Tensor parallel = fc.forward(in, kernelContext(4));
    for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial.data()[i], parallel.data()[i]) << "at " << i;
}

TEST(Conv2D, OutputShapeArithmetic)
{
    Conv2D conv("c", 3, 16, 3, 1, 1);
    const Shape out = conv.outputShape({3, 32, 48});
    EXPECT_EQ(out.c, 16);
    EXPECT_EQ(out.h, 32);
    EXPECT_EQ(out.w, 48);
    Conv2D strided("s", 3, 8, 3, 2, 1);
    const Shape so = strided.outputShape({3, 32, 32});
    EXPECT_EQ(so.h, 16);
}

TEST(Conv2D, ProfileCountsFlops)
{
    Conv2D conv("c", 2, 4, 3, 1, 1);
    const auto p = conv.profile({2, 10, 10});
    // 2 * outC * inC * k*k * outH * outW = 2*4*2*9*100 = 14400.
    EXPECT_EQ(p.flops, 14400u);
    EXPECT_EQ(p.weightBytes, (4 * 2 * 9 + 4) * sizeof(float));
    EXPECT_EQ(p.kind, LayerKind::Conv);
    EXPECT_EQ(p.inputBytes, 2u * 100 * 4);
    EXPECT_EQ(p.outputBytes, 4u * 100 * 4);
}

TEST(MaxPool, SelectsWindowMaximum)
{
    MaxPool pool("p", 2, 2);
    Tensor in(1, 4, 4);
    float v = 0;
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            in.at(0, y, x) = v++;
    const Tensor out = pool.forward(in);
    EXPECT_EQ(out.height(), 2);
    EXPECT_EQ(out.width(), 2);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 1), 7.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 0), 13.0f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 1), 15.0f);
}

TEST(MaxPool, HandlesNegativeValues)
{
    MaxPool pool("p", 2, 2);
    Tensor in(1, 2, 2);
    in.at(0, 0, 0) = -5;
    in.at(0, 0, 1) = -2;
    in.at(0, 1, 0) = -9;
    in.at(0, 1, 1) = -3;
    EXPECT_FLOAT_EQ(pool.forward(in).at(0, 0, 0), -2.0f);
}

TEST(Activation, ReluAndLeaky)
{
    Tensor in(1, 1, 4);
    in.at(0, 0, 0) = -2;
    in.at(0, 0, 1) = 3;
    in.at(0, 0, 2) = 0;
    in.at(0, 0, 3) = -0.5;
    Activation relu("r", 0.0f);
    const Tensor r = relu.forward(in);
    EXPECT_FLOAT_EQ(r.at(0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(r.at(0, 0, 1), 3.0f);
    Activation leaky("l", 0.1f);
    const Tensor l = leaky.forward(in);
    EXPECT_FLOAT_EQ(l.at(0, 0, 0), -0.2f);
    EXPECT_FLOAT_EQ(l.at(0, 0, 3), -0.05f);
    EXPECT_FLOAT_EQ(l.at(0, 0, 1), 3.0f);
}

TEST(FullyConnected, ComputesAffineMap)
{
    FullyConnected fc("f", 3, 2);
    // y = W x + b with W = [[1,2,3],[4,5,6]], b = [0.5, -1].
    fc.weights() = {1, 2, 3, 4, 5, 6};
    fc.bias() = {0.5f, -1.0f};
    Tensor in(3, 1, 1);
    in.at(0, 0, 0) = 1;
    in.at(1, 0, 0) = 2;
    in.at(2, 0, 0) = 3;
    const Tensor out = fc.forward(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 14.5f);
    EXPECT_FLOAT_EQ(out.at(1, 0, 0), 31.0f);
}

TEST(FullyConnected, FlattensSpatialInput)
{
    FullyConnected fc("f", 8, 2);
    Tensor in(2, 2, 2);
    in.fill(1.0f);
    fc.weights().assign(16, 0.25f);
    const Tensor out = fc.forward(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.0f);
    const Shape s = fc.outputShape({2, 2, 2});
    EXPECT_EQ(s.c, 2);
    EXPECT_EQ(s.h, 1);
}

TEST(FullyConnected, ProfileCountsFlopsAndWeights)
{
    FullyConnected fc("f", 100, 50);
    const auto p = fc.profile({100, 1, 1});
    EXPECT_EQ(p.flops, 2u * 100 * 50);
    EXPECT_EQ(p.weightBytes, (100u * 50 + 50) * sizeof(float));
    EXPECT_EQ(p.kind, LayerKind::FullyConnected);
}

TEST(AvgPool, AveragesWindow)
{
    AvgPool pool("p", 2, 2);
    Tensor in(1, 2, 4);
    float v = 0;
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 4; ++x)
            in.at(0, y, x) = v++;
    const Tensor out = pool.forward(in);
    EXPECT_EQ(out.width(), 2);
    EXPECT_EQ(out.height(), 1);
    // (0+1+4+5)/4 and (2+3+6+7)/4.
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 2.5f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 1), 4.5f);
}

TEST(AvgPool, GlobalPoolingReducesToScalar)
{
    AvgPool pool("gap", 4, 4);
    Tensor in(2, 4, 4);
    in.fill(3.0f);
    in.at(1, 0, 0) = 19.0f;
    const Tensor out = pool.forward(in);
    EXPECT_EQ(out.height(), 1);
    EXPECT_EQ(out.width(), 1);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 3.0f);
    EXPECT_FLOAT_EQ(out.at(1, 0, 0), 4.0f);
}

TEST(Softmax, NormalizesPerPosition)
{
    Softmax sm("s");
    Tensor in(3, 1, 2);
    in.at(0, 0, 0) = 1.0f;
    in.at(1, 0, 0) = 2.0f;
    in.at(2, 0, 0) = 3.0f;
    in.at(0, 0, 1) = 100.0f; // large values must not overflow
    in.at(1, 0, 1) = 100.0f;
    in.at(2, 0, 1) = 100.0f;
    const Tensor out = sm.forward(in);
    for (int x = 0; x < 2; ++x) {
        float sum = 0;
        for (int c = 0; c < 3; ++c) {
            EXPECT_GT(out.at(c, 0, x), 0.0f);
            sum += out.at(c, 0, x);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
    // Ordering preserved; equal logits -> uniform.
    EXPECT_GT(out.at(2, 0, 0), out.at(1, 0, 0));
    EXPECT_NEAR(out.at(0, 0, 1), 1.0f / 3, 1e-5);
}

TEST(FoldBatchNorm, MatchesExplicitNormalization)
{
    Rng rng(77);
    Conv2D conv("c", 2, 3, 3, 1, 1);
    for (auto& w : conv.weights())
        w = static_cast<float>(rng.uniform(-0.5, 0.5));
    for (auto& b : conv.bias())
        b = static_cast<float>(rng.uniform(-0.5, 0.5));
    const Tensor in = randomTensor(2, 6, 6, rng);
    const Tensor preBn = conv.forward(in);

    BatchNormParams bn;
    for (int c = 0; c < 3; ++c) {
        bn.gamma.push_back(static_cast<float>(rng.uniform(0.5, 2.0)));
        bn.beta.push_back(static_cast<float>(rng.uniform(-1, 1)));
        bn.mean.push_back(static_cast<float>(rng.uniform(-1, 1)));
        bn.variance.push_back(static_cast<float>(rng.uniform(0.1, 2)));
    }

    // Explicit reference: BN applied to the original conv output.
    Tensor expected = preBn;
    for (int c = 0; c < 3; ++c) {
        const float scale =
            bn.gamma[c] / std::sqrt(bn.variance[c] + bn.epsilon);
        for (int y = 0; y < expected.height(); ++y)
            for (int x = 0; x < expected.width(); ++x)
                expected.at(c, y, x) =
                    scale * (preBn.at(c, y, x) - bn.mean[c]) +
                    bn.beta[c];
    }

    foldBatchNorm(conv, bn);
    const Tensor folded = conv.forward(in);
    for (int c = 0; c < 3; ++c)
        for (int y = 0; y < folded.height(); ++y)
            for (int x = 0; x < folded.width(); ++x)
                ASSERT_NEAR(folded.at(c, y, x), expected.at(c, y, x),
                            1e-4);
}

TEST(FoldBatchNorm, RejectsMismatchedSizes)
{
    Conv2D conv("c", 1, 4, 3, 1, 1);
    BatchNormParams bn;
    bn.gamma = {1, 1};
    bn.beta = {0, 0};
    bn.mean = {0, 0};
    bn.variance = {1, 1};
    EXPECT_EXIT(foldBatchNorm(conv, bn), ::testing::ExitedWithCode(1),
                "output channels");
}

TEST(LayerKindNames, AreStable)
{
    EXPECT_STREQ(layerKindName(LayerKind::Conv), "conv");
    EXPECT_STREQ(layerKindName(LayerKind::Pool), "pool");
    EXPECT_STREQ(layerKindName(LayerKind::Activation), "act");
    EXPECT_STREQ(layerKindName(LayerKind::FullyConnected), "fc");
}

/** Restores the ambient ISA tier when a cross-tier test ends. */
struct TierGuard
{
    ~TierGuard() { ad::setIsaTier(""); }
};

bool
bitwiseEqual(const Tensor& a, const Tensor& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * The implicit-GEMM convolution against the explicit im2col + naive
 * GEMM lowering it replaced, bit for bit, at every ISA tier and thread
 * count. The geometry sweep covers every kernel/stride/pad/channel
 * combination DET and TRA use and more; spatial sizes cycle from 1x1
 * to a 103-wide input, so tiles land inside one output row, wrap onto
 * the next, touch the padding and read the input in place. Weights
 * include exact zeros (their products with negative inputs are -0.0,
 * which the +0.0f accumulator start must absorb), and the epilogue
 * cycles through unfused/fused and zero/nonzero bias.
 */
TEST(Conv2DTiers, EveryTierAndThreadCountMatchesIm2colBitwise)
{
    const TierGuard guard;
    const int sizes[][2] = {{1, 1}, {2, 3}, {5, 7}, {12, 17}, {31, 33},
                            {9, 103}};
    const int outChannels[] = {1, 4, 5, 8};
    Rng rng(2024);
    int index = 0;
    for (const int kernel : {1, 3, 5, 11}) {
        for (const int stride : {1, 2, 4}) {
            for (const int pad : {0, 1, 2}) {
                for (const int inC : {1, 3, 4, 8}) {
                    const int* size = sizes[index % 6];
                    const int h = std::max(size[0], kernel - 2 * pad);
                    const int w = std::max(size[1], kernel - 2 * pad);
                    const int outC = outChannels[index % 4];
                    const bool fused = index % 2 == 1;
                    const bool zeroBias = index / 2 % 2 == 0;
                    ++index;
                    Conv2D conv("c", inC, outC, kernel, stride, pad);
                    for (std::size_t i = 0; i < conv.weights().size(); ++i)
                        conv.weights()[i] =
                            i % 5 == 0 ? 0.0f
                                       : static_cast<float>(
                                             rng.uniform(-0.5, 0.5));
                    for (std::size_t i = 0; i < conv.bias().size(); ++i)
                        conv.bias()[i] =
                            zeroBias || i % 3 == 0
                                ? 0.0f
                                : static_cast<float>(rng.uniform(-0.5, 0.5));
                    if (fused)
                        conv.fuseActivation(0.1f);
                    const Tensor in = randomTensor(inC, h, w, rng);
                    const Tensor ref = testref::convIm2col(conv, in);
                    for (const std::string& tier : ad::availableIsaTiers()) {
                        ASSERT_TRUE(ad::setIsaTier(tier)) << tier;
                        for (const int threads : {1, 2, 8}) {
                            ASSERT_TRUE(bitwiseEqual(
                                conv.forward(in, kernelContext(threads)),
                                ref))
                                << "tier " << tier << " threads " << threads
                                << " k" << kernel << " s" << stride << " p"
                                << pad << " c" << inC << "->" << outC << " "
                                << h << "x" << w << (fused ? " fused" : "")
                                << (zeroBias ? " zero-bias" : "");
                        }
                    }
                }
            }
        }
    }
}

std::uint64_t
fnv1a(const Tensor& t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
    for (std::size_t i = 0; i < t.size() * sizeof(float); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * DET at its 416 input and TRA's conv branch at a 227 crop, lowered as
 * the engines lower them: every tier and thread count produces the
 * same output bits, and those bits are the ones the im2col + packed
 * GEMM lowering produced before the implicit-GEMM path replaced it
 * (the golden digests), so the detector and tracker see unchanged
 * numerics.
 */
TEST(Conv2DTiers, DetAndTraOutputsEqualAcrossTiersAndGolden)
{
    const TierGuard guard;
    struct Case
    {
        ModelSpec spec;
        bool detector;
        std::uint64_t golden;
    };
    const Case cases[] = {
        {detectorSpec(416, 0.25, 4), true, 0x76b7c6c11d21e4d7ull},
        {trackerConvSpec(227, 0.25), false, 0x72e4706433086db2ull},
    };
    for (const Case& c : cases) {
        Network net = buildNetwork(c.spec);
        Rng weightRng(c.detector ? 7 : 11);
        if (c.detector)
            initDetectorWeights(net, weightRng);
        else
            initTrackerWeights(net, weightRng);
        lowerNetwork(net, c.spec.input);
        Tensor input(c.spec.input.c, c.spec.input.h, c.spec.input.w);
        Rng inRng(c.detector ? 21 : 5);
        for (std::size_t i = 0; i < input.size(); ++i)
            input.data()[i] = static_cast<float>(inRng.uniform());
        for (const std::string& tier : ad::availableIsaTiers()) {
            ASSERT_TRUE(ad::setIsaTier(tier)) << tier;
            for (const int threads : {1, 2, 8}) {
                EXPECT_EQ(fnv1a(net.forward(input, kernelContext(threads))),
                          c.golden)
                    << c.spec.name << " tier " << tier << " threads "
                    << threads;
            }
        }
    }
}

} // namespace
