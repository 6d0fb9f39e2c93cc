/**
 * @file
 * Pooled octree storage tests: pooled rebuilds against fresh
 * builds, and a TemporalPreprocessState's private pool against the
 * engine's own. Every comparison is bit-identical full-state
 * equality — pooling is a wall-clock optimization and must never
 * move an output bit.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/frame_workspace.h"
#include "core/preprocessing_engine.h"
#include "core/temporal_preprocess.h"
#include "datasets/coherent_drive.h"
#include "octree/octree.h"

#include "octree_equality.h"

namespace hgpcn
{
namespace
{

Octree::Config
octreeConfig(int depth, std::uint32_t leaf_capacity)
{
    Octree::Config cfg;
    cfg.maxDepth = depth;
    cfg.leafCapacity = leaf_capacity;
    return cfg;
}

PointCloud
randomCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    return cloud;
}

// ------------------------------------------------ pooled rebuild

TEST(PooledOctree, RebuildReusesStorageWithIdenticalOutput)
{
    const PointCloud big = randomCloud(2000, 5);
    const PointCloud small = randomCloud(300, 6);
    Octree pooled;
    pooled.rebuild(big, octreeConfig(8, 8));
    pooled.rebuild(small, octreeConfig(8, 8));
    expectTreesIdentical(pooled,
                         Octree::build(small, octreeConfig(8, 8)));
}

// ------------------------------------------- per-stream pool

TEST(TemporalState, PooledFramesMatchEngineBuilds)
{
    CoherentDrive::Config dc;
    dc.points = 1200;
    dc.churnFraction = 0.1;
    dc.seed = 51;
    const CoherentDrive drive(dc);

    PreprocessingEngine::Config ec;
    ec.octree = octreeConfig(10, 16);
    const PreprocessingEngine engine(ec);

    TemporalPreprocessState::Config tc;
    tc.octree = ec.octree;
    TemporalPreprocessState carry(tc);

    const std::size_t k = 256;
    for (std::size_t t = 0; t < 4; ++t) {
        const Frame frame = drive.generate(t);
        PreprocessResult pooled = engine.buildStage(frame.cloud, &carry);
        PreprocessResult scratch = engine.buildStage(frame.cloud);
        expectTreesIdentical(*pooled.tree, *scratch.tree);
        EXPECT_EQ(pooled.octreeTableBytes, scratch.octreeTableBytes);
        EXPECT_EQ(pooled.octreeBuildSec, scratch.octreeBuildSec);

        engine.sampleStage(pooled, k);
        engine.sampleStage(scratch, k);
        EXPECT_EQ(pooled.spt, scratch.spt);
        ASSERT_EQ(pooled.sampled.size(), scratch.sampled.size());
        for (PointIndex i = 0; i < pooled.sampled.size(); ++i) {
            EXPECT_TRUE(sameVec3(pooled.sampled.position(i),
                                 scratch.sampled.position(i)));
        }
        EXPECT_EQ(pooled.dsu.totalSec(), scratch.dsu.totalSec());
    }
    const TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.frames, 4u);
    EXPECT_EQ(st.octreeMisses, 4u); // every frame builds from scratch
    EXPECT_EQ(st.octreeHits, 0u);
    EXPECT_EQ(st.nodesReused, 0u);
}

TEST(TemporalState, SteadyStateLeasesDoNotGrowArenas)
{
    CoherentDrive::Config dc;
    dc.points = 1000;
    dc.churnFraction = 0.1;
    dc.seed = 71;
    const CoherentDrive drive(dc);
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);
    TemporalPreprocessState carry(tc);

    // Warm-up: the pooled bundle sizes itself. Node counts
    // fluctuate with churn, so give it a few frames to reach its
    // high-water capacity (vector doubling converges fast).
    for (std::size_t t = 0; t < 6; ++t)
        carry.processFrame(drive.generate(t).cloud);
    const std::uint64_t warm = FrameWorkspace::backingGrowths();
    for (std::size_t t = 6; t < 14; ++t)
        carry.processFrame(drive.generate(t).cloud);
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warm)
        << "steady-state pooled frames grew an arena";
}

TEST(TemporalState, BundlesOutliveTheState)
{
    CoherentDrive::Config dc;
    dc.points = 900;
    dc.churnFraction = 0.1;
    dc.seed = 81;
    const CoherentDrive drive(dc);
    std::shared_ptr<PreprocessBundle> bundle;
    {
        TemporalPreprocessState::Config tc;
        tc.octree = octreeConfig(8, 16);
        TemporalPreprocessState carry(tc);
        bundle = carry.processFrame(drive.generate(0).cloud);
    }
    // The pool is kept alive by the lease's deleter; the tree is
    // still a valid octree over the frame.
    bundle->tree.validate();
    EXPECT_EQ(bundle->tree.pointCodes().size(), dc.points);
}

} // namespace
} // namespace hgpcn
