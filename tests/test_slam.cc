/**
 * @file
 * Tests for the localization substrate: prior-map indexing and
 * serialization, rigid-2D/RANSAC pose solving under noise sweeps, map
 * building from a survey drive, and end-to-end localization accuracy
 * including relocalization recovery.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/parallel_for.hh"
#include "sensors/scenario.hh"
#include "slam/localizer.hh"
#include "slam/mapping.hh"

namespace {

using namespace ad;
using namespace ad::slam;
using sensors::Camera;
using sensors::Resolution;
using sensors::Scenario;
using vision::Descriptor;

Descriptor
randomDesc(Rng& rng)
{
    Descriptor d;
    for (auto& w : d.words)
        w = rng();
    return d;
}

TEST(PriorMap, InsertAndRadiusQuery)
{
    Rng rng(1);
    PriorMap map;
    map.insert({0, 0}, 1.0f, randomDesc(rng));
    map.insert({5, 0}, 1.0f, randomDesc(rng));
    map.insert({50, 0}, 1.0f, randomDesc(rng));
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.queryRadius({0, 0}, 10.0).size(), 2u);
    EXPECT_EQ(map.queryRadius({0, 0}, 100.0).size(), 3u);
    EXPECT_EQ(map.queryRadius({1000, 0}, 10.0).size(), 0u);
}

TEST(PriorMap, QueryRadiusIsExactBoundary)
{
    Rng rng(2);
    PriorMap map;
    map.insert({3, 4}, 0.0f, randomDesc(rng)); // distance 5 from origin
    EXPECT_EQ(map.queryRadius({0, 0}, 5.0).size(), 1u);
    EXPECT_EQ(map.queryRadius({0, 0}, 4.99).size(), 0u);
}

TEST(PriorMap, QueryAcrossNegativeCoordinates)
{
    Rng rng(3);
    PriorMap map;
    map.insert({-15.0, -3.0}, 0.0f, randomDesc(rng));
    map.insert({-25.0, -3.0}, 0.0f, randomDesc(rng));
    EXPECT_EQ(map.queryRadius({-15, -3}, 1.0).size(), 1u);
    EXPECT_EQ(map.queryRadius({-20, -3}, 6.0).size(), 2u);
}

TEST(PriorMap, FindSimilarUsesDescriptorGate)
{
    Rng rng(4);
    PriorMap map;
    const Descriptor d = randomDesc(rng);
    map.insert({10, 10}, 0.0f, d);
    EXPECT_GE(map.findSimilar({10.1, 10.0}, 1.0, d, 10), 0);
    Descriptor far = d;
    far.words[0] = ~far.words[0]; // 64 bits away
    EXPECT_EQ(map.findSimilar({10.1, 10.0}, 1.0, far, 10), -1);
    EXPECT_EQ(map.findSimilar({90.0, 10.0}, 1.0, d, 10), -1);
}

TEST(PriorMapDeathTest, LoadRejectsCountBeyondStream)
{
    // Eight bytes claiming 2^40 points: load must stop at the first
    // missing point with its own diagnostic, not run out of memory
    // filling default points.
    std::stringstream ss;
    const std::uint64_t claimed = 1ull << 40;
    ss.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
    EXPECT_EXIT((void)PriorMap::load(ss), ::testing::ExitedWithCode(1),
                "truncated map stream");
}

TEST(PriorMap, SerializationRoundTrip)
{
    Rng rng(5);
    PriorMap map;
    for (int i = 0; i < 100; ++i)
        map.insert({rng.uniform(0, 500), rng.uniform(-5, 15)},
                   static_cast<float>(rng.uniform(0, 3)), randomDesc(rng));
    std::stringstream ss;
    map.save(ss);
    const PriorMap loaded = PriorMap::load(ss);
    ASSERT_EQ(loaded.size(), map.size());
    for (std::size_t i = 0; i < map.size(); ++i) {
        EXPECT_EQ(loaded.point(i).id, map.point(i).id);
        EXPECT_DOUBLE_EQ(loaded.point(i).pos.x, map.point(i).pos.x);
        EXPECT_EQ(loaded.point(i).desc, map.point(i).desc);
        EXPECT_FLOAT_EQ(loaded.point(i).height, map.point(i).height);
    }
    // Loaded map answers queries identically.
    EXPECT_EQ(loaded.queryRadius({250, 5}, 50).size(),
              map.queryRadius({250, 5}, 50).size());
}

TEST(PriorMap, StorageBytesMatchesSerializedSize)
{
    Rng rng(6);
    PriorMap map;
    for (int i = 0; i < 37; ++i)
        map.insert({static_cast<double>(i), 0}, 0.0f, randomDesc(rng));
    std::stringstream ss;
    map.save(ss);
    EXPECT_EQ(map.storageBytes(), ss.str().size());
}

TEST(PoseSolver, ExactRecoveryFromCleanData)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const Pose2 truth(rng.uniform(-100, 100), rng.uniform(-100, 100),
                          rng.uniform(-M_PI, M_PI));
        std::vector<Correspondence> corr;
        for (int i = 0; i < 10; ++i) {
            const Vec2 local{rng.uniform(2, 50), rng.uniform(-20, 20)};
            corr.push_back({truth.transform(local), local, 1.0});
        }
        Pose2 solved;
        ASSERT_TRUE(solveRigid2D(corr, solved));
        EXPECT_NEAR(solved.pos.x, truth.pos.x, 1e-6);
        EXPECT_NEAR(solved.pos.y, truth.pos.y, 1e-6);
        EXPECT_NEAR(wrapAngle(solved.theta - truth.theta), 0.0, 1e-6);
    }
}

TEST(PoseSolver, DegenerateInputsRejected)
{
    Pose2 pose;
    EXPECT_FALSE(solveRigid2D({}, pose));
    EXPECT_FALSE(solveRigid2D({{{1, 1}, {0, 0}, 1.0}}, pose));
    // All local points coincident: rotation unobservable.
    std::vector<Correspondence> coincident = {
        {{5, 5}, {1, 1}, 1.0}, {{5, 5}, {1, 1}, 1.0}};
    EXPECT_FALSE(solveRigid2D(coincident, pose));
}

/** Noise sweep: RANSAC recovers the pose despite outliers. */
class RansacNoiseTest : public ::testing::TestWithParam<double> {};

TEST_P(RansacNoiseTest, RecoversUnderOutlierFraction)
{
    const double outlierFraction = GetParam();
    Rng rng(11 + static_cast<std::uint64_t>(outlierFraction * 100));
    const Pose2 truth(42.0, 7.0, 0.15);
    std::vector<Correspondence> corr;
    for (int i = 0; i < 60; ++i) {
        const Vec2 local{rng.uniform(3, 60), rng.uniform(-25, 25)};
        Vec2 world = truth.transform(local);
        if (rng.uniform() < outlierFraction) {
            world.x += rng.uniform(-40, 40);
            world.y += rng.uniform(-40, 40);
        } else {
            world.x += rng.normal(0, 0.05);
            world.y += rng.normal(0, 0.05);
        }
        corr.push_back({world, local, 1.0});
    }
    RansacParams params{200, 0.5, 10};
    const RansacResult result = ransacPose(corr, params, rng);
    ASSERT_TRUE(result.ok);
    EXPECT_NEAR(result.pose.pos.x, truth.pos.x, 0.15);
    EXPECT_NEAR(result.pose.pos.y, truth.pos.y, 0.15);
    EXPECT_NEAR(wrapAngle(result.pose.theta - truth.theta), 0.0, 0.01);
    EXPECT_GE(result.inliers, 10);
}

INSTANTIATE_TEST_SUITE_P(OutlierFractions, RansacNoiseTest,
                         ::testing::Values(0.0, 0.2, 0.4, 0.6));

TEST(RansacPose, ParallelIdenticalToSerial)
{
    // The pool-sharded counting pass must select the same hypothesis,
    // pose and inlier set as serial execution, from the same rng state.
    Rng rngA(21);
    Rng rngB(21);
    const Pose2 truth(10.0, -4.0, -0.3);
    std::vector<Correspondence> corr;
    for (int i = 0; i < 80; ++i) {
        const Vec2 local{rngA.uniform(3, 60), rngA.uniform(-25, 25)};
        Vec2 world = truth.transform(local);
        if (i % 4 == 0) {
            world.x += rngA.uniform(-30, 30);
            world.y += rngA.uniform(-30, 30);
        }
        corr.push_back({world, local, 1.0});
    }
    rngB = rngA; // identical stream position for both solves
    RansacParams params{150, 0.5, 8};
    const RansacResult serial = ransacPose(corr, params, rngA);
    const RansacResult parallel = ransacPose(
        corr, params, rngB, &ad::sharedWorkerPool(), 4);
    ASSERT_EQ(serial.ok, parallel.ok);
    ASSERT_TRUE(serial.ok);
    EXPECT_EQ(serial.pose.pos.x, parallel.pose.pos.x);
    EXPECT_EQ(serial.pose.pos.y, parallel.pose.pos.y);
    EXPECT_EQ(serial.pose.theta, parallel.pose.theta);
    EXPECT_EQ(serial.inliers, parallel.inliers);
    EXPECT_EQ(serial.inlierIndices, parallel.inlierIndices);
    // Both solvers must leave the rng at the same position too.
    EXPECT_EQ(rngA(), rngB());
}

TEST(RansacPose, FailsGracefullyOnPureNoise)
{
    Rng rng(13);
    std::vector<Correspondence> corr;
    for (int i = 0; i < 30; ++i)
        corr.push_back({{rng.uniform(-100, 100), rng.uniform(-100, 100)},
                        {rng.uniform(2, 50), rng.uniform(-20, 20)},
                        1.0});
    RansacParams params{100, 0.3, 20};
    EXPECT_FALSE(ransacPose(corr, params, rng).ok);
}

class SlamIntegrationTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        rng_ = new Rng(21);
        sensors::ScenarioParams sp;
        sp.roadLength = 200.0;
        scenario_ = new Scenario(sensors::makeHighwayScenario(*rng_, sp));
        camera_ = new Camera(Resolution::HHD);
        MappingParams mp;
        mp.orb.fast.maxKeypoints = 600;
        map_ = new PriorMap(
            buildPriorMap(scenario_->world, *camera_, 1, mp));
    }

    static void
    TearDownTestSuite()
    {
        delete map_;
        delete camera_;
        delete scenario_;
        delete rng_;
        map_ = nullptr;
        camera_ = nullptr;
        scenario_ = nullptr;
        rng_ = nullptr;
    }

    static Rng* rng_;
    static Scenario* scenario_;
    static Camera* camera_;
    static PriorMap* map_;
};

Rng* SlamIntegrationTest::rng_ = nullptr;
Scenario* SlamIntegrationTest::scenario_ = nullptr;
Camera* SlamIntegrationTest::camera_ = nullptr;
PriorMap* SlamIntegrationTest::map_ = nullptr;

TEST_F(SlamIntegrationTest, SurveyProducesDenseMap)
{
    EXPECT_GT(map_->size(), 500u);
    EXPECT_GT(map_->pointsPerMeter(), 2.0);
    // Some features anchored above ground (landmark boards).
    int elevated = 0;
    for (const auto& p : map_->points())
        elevated += p.height > 0.3f;
    EXPECT_GT(elevated, static_cast<int>(map_->size()) / 10);
}

TEST_F(SlamIntegrationTest, LocalizesDriveWithinHalfMeter)
{
    // Drive between survey poses (offset lane position) and check the
    // estimated trajectory against ground truth.
    sensors::World drive;
    drive.road() = scenario_->world.road();
    for (const auto& lm : scenario_->world.landmarks())
        drive.landmarks().push_back(lm);

    LocalizerParams lp;
    Localizer loc(map_, camera_, lp, 99);
    const double y = drive.road().laneCenter(1) + 0.6; // off-survey line
    Pose2 ego(10.0, y, 0.0);
    loc.reset(ego, {10.0, 0.0});

    int solved = 0;
    double worstErr = 0.0;
    double sumErr = 0.0;
    const int frames = 25;
    for (int i = 0; i < frames; ++i) {
        ego.pos.x += 1.0; // 10 m/s at 10 fps
        const sensors::Frame frame = camera_->render(drive, ego);
        const LocResult r = loc.localize(frame.image, 0.1);
        if (r.ok) {
            ++solved;
            const double err = r.pose.distanceTo(ego);
            worstErr = std::max(worstErr, err);
            sumErr += err;
        }
    }
    EXPECT_GE(solved, frames * 3 / 4);
    // Sub-meter localization at HHD survey resolution; the paper's
    // decimeter figure assumes survey-grade imagery, and accuracy here
    // tightens with camera resolution (pixel-quantized depth).
    EXPECT_LT(sumErr / solved, 0.5);
    EXPECT_LT(worstErr, 1.5);
}

TEST_F(SlamIntegrationTest, RelocalizationRecoversFromBadPrediction)
{
    sensors::World drive;
    drive.road() = scenario_->world.road();
    for (const auto& lm : scenario_->world.landmarks())
        drive.landmarks().push_back(lm);

    LocalizerParams lp;
    Localizer loc(map_, camera_, lp, 7);
    const Pose2 truth(60.0, drive.road().laneCenter(1), 0.0);
    // Initialize the motion model far from the truth: the narrow
    // search fails and the localizer must fall back to the wide one.
    loc.reset(Pose2(truth.pos.x - 60.0, truth.pos.y, 0.0));
    const sensors::Frame frame = camera_->render(drive, truth);
    const LocResult r = loc.localize(frame.image, 0.1);
    EXPECT_TRUE(r.relocalized);
    ASSERT_TRUE(r.ok);
    EXPECT_LT(r.pose.distanceTo(truth), 1.0);
    EXPECT_EQ(loc.relocalizationCount(), 1);
}

TEST_F(SlamIntegrationTest, RelocalizationCostsMoreThanTracking)
{
    sensors::World drive;
    drive.road() = scenario_->world.road();
    for (const auto& lm : scenario_->world.landmarks())
        drive.landmarks().push_back(lm);

    LocalizerParams lp;
    const Pose2 truth(60.0, drive.road().laneCenter(1), 0.0);
    const sensors::Frame frame = camera_->render(drive, truth);

    Localizer tracking(map_, camera_, lp, 3);
    tracking.reset(truth);
    const LocResult fast = tracking.localize(frame.image, 0.1);

    Localizer relocing(map_, camera_, lp, 3);
    relocing.reset(Pose2(truth.pos.x - 60.0, truth.pos.y, 0.0));
    const LocResult slow = relocing.localize(frame.image, 0.1);

    ASSERT_TRUE(fast.ok);
    ASSERT_TRUE(slow.ok);
    // The widened search considers more candidates -- the mechanism
    // behind LOC's heavy tail in Figure 10b.
    EXPECT_GT(slow.candidates, fast.candidates);
    EXPECT_GT(slow.timings.relocMs, 0.0);
    EXPECT_EQ(fast.timings.relocMs, 0.0);
}

TEST_F(SlamIntegrationTest, FeatureExtractionDominatesLocCycles)
{
    // Figure 7: FE is ~86% of LOC. Assert it dominates (>60%) in our
    // implementation on a representative frame.
    sensors::World drive;
    drive.road() = scenario_->world.road();
    for (const auto& lm : scenario_->world.landmarks())
        drive.landmarks().push_back(lm);

    LocalizerParams lp;
    Localizer loc(map_, camera_, lp, 5);
    Pose2 ego(30.0, drive.road().laneCenter(1), 0.0);
    loc.reset(ego, {10, 0});
    double fe = 0;
    double total = 0;
    for (int i = 0; i < 10; ++i) {
        ego.pos.x += 1.0;
        const sensors::Frame frame = camera_->render(drive, ego);
        const LocResult r = loc.localize(frame.image, 0.1);
        fe += r.timings.feMs;
        total += r.timings.totalMs;
    }
    EXPECT_GT(fe / total, 0.6);
}

} // namespace
