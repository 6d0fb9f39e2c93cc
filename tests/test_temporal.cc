/**
 * @file
 * Temporal-coherence preprocessing tests: the bottom-up Morton
 * octree builder against the recursive oracle, the incremental
 * cross-frame builder against from-scratch builds, the cached KNN /
 * occupancy indices against fresh oracles, and the pooled
 * TemporalPreprocessState against the carry-less engine path. Every
 * comparison is bit-identical full-state equality — the caches are
 * wall-clock optimizations and must never move an output bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/frame_workspace.h"
#include "core/preprocessing_engine.h"
#include "core/temporal_preprocess.h"
#include "datasets/coherent_drive.h"
#include "geometry/point_delta.h"
#include "knn/spatial_hash_knn.h"
#include "octree/incremental_octree.h"
#include "octree/octree.h"
#include "octree/voxel_grid.h"

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

bool
sameVec3(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a.x, &b.x, sizeof(float)) == 0 &&
           std::memcmp(&a.y, &b.y, sizeof(float)) == 0 &&
           std::memcmp(&a.z, &b.z, sizeof(float)) == 0;
}

/** Full-state bitwise equality of two octrees over the same frame. */
void
expectTreesIdentical(const Octree &a, const Octree &b)
{
    a.validate();
    b.validate();
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    ASSERT_EQ(a.pointCodes().size(), b.pointCodes().size());
    EXPECT_EQ(a.depth(), b.depth());
    EXPECT_EQ(a.leafCount(), b.leafCount());
    EXPECT_TRUE(sameVec3(a.rootBounds().lo, b.rootBounds().lo));
    EXPECT_TRUE(sameVec3(a.rootBounds().hi, b.rootBounds().hi));
    for (std::size_t i = 0; i < a.nodes().size(); ++i) {
        const OctreeNode &na = a.nodes()[i];
        const OctreeNode &nb = b.nodes()[i];
        ASSERT_EQ(na.code, nb.code) << "node " << i;
        ASSERT_EQ(na.level, nb.level) << "node " << i;
        ASSERT_EQ(na.childMask, nb.childMask) << "node " << i;
        ASSERT_EQ(na.firstChild, nb.firstChild) << "node " << i;
        ASSERT_EQ(na.parent, nb.parent) << "node " << i;
        ASSERT_EQ(na.pointBegin, nb.pointBegin) << "node " << i;
        ASSERT_EQ(na.pointEnd, nb.pointEnd) << "node " << i;
    }
    for (std::size_t i = 0; i < a.pointCodes().size(); ++i) {
        ASSERT_EQ(a.pointCodes()[i], b.pointCodes()[i]) << "point " << i;
        ASSERT_EQ(a.permutation()[i], b.permutation()[i])
            << "point " << i;
        ASSERT_EQ(a.leafOf(static_cast<PointIndex>(i)),
                  b.leafOf(static_cast<PointIndex>(i)))
            << "point " << i;
        ASSERT_TRUE(sameVec3(
            a.reorderedCloud().position(static_cast<PointIndex>(i)),
            b.reorderedCloud().position(static_cast<PointIndex>(i))))
            << "point " << i;
    }
    // The modeled paper numbers come from these counters — the
    // incremental path must charge the from-scratch workload.
    EXPECT_EQ(a.buildStats().get("octree.host_reads"),
              b.buildStats().get("octree.host_reads"));
    EXPECT_EQ(a.buildStats().get("octree.code_computations"),
              b.buildStats().get("octree.code_computations"));
    EXPECT_EQ(a.buildStats().get("octree.sort_ops"),
              b.buildStats().get("octree.sort_ops"));
    EXPECT_EQ(a.buildStats().get("octree.host_writes"),
              b.buildStats().get("octree.host_writes"));
}

// ----------------------------------------- bottom-up builder oracle

TEST(BottomUpBuild, MatchesRecursiveBuilderAcrossShapes)
{
    const std::size_t sizes[] = {1, 2, 7, 64, 500, 3000};
    for (std::size_t n : sizes) {
        for (int depth : {2, 6, 12}) {
            const PointCloud cloud = randomCloud(n, 17 * n + depth);
            Octree::Config up = octreeConfig(depth, 8);
            Octree::Config down = up;
            up.bottomUpBuild = true;
            down.bottomUpBuild = false;
            expectTreesIdentical(Octree::build(cloud, up),
                                 Octree::build(cloud, down));
        }
    }
}

TEST(BottomUpBuild, MatchesRecursiveOnCoincidentPoints)
{
    // All duplicates collapse to one full-depth code: the deepest
    // run is a leaf regardless of leafCapacity.
    PointCloud cloud;
    for (int i = 0; i < 100; ++i)
        cloud.add({0.25f, 0.5f, 0.75f});
    // A second pile plus singles: runs of every shape.
    for (int i = 0; i < 40; ++i)
        cloud.add({0.8f, 0.8f, 0.8f});
    Rng rng(3);
    for (int i = 0; i < 30; ++i)
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    Octree::Config up = octreeConfig(6, 4);
    Octree::Config down = up;
    up.bottomUpBuild = true;
    down.bottomUpBuild = false;
    expectTreesIdentical(Octree::build(cloud, up),
                         Octree::build(cloud, down));
}

TEST(BottomUpBuild, RebuildReusesStorageWithIdenticalOutput)
{
    const PointCloud big = randomCloud(2000, 5);
    const PointCloud small = randomCloud(300, 6);
    Octree pooled;
    pooled.rebuild(big, octreeConfig(8, 8));
    pooled.rebuild(small, octreeConfig(8, 8));
    expectTreesIdentical(pooled,
                         Octree::build(small, octreeConfig(8, 8)));
}

// ------------------------------------------- incremental vs scratch

/** Overlap sweep: 100% / ~90% / 50% / 25% / 0% retained points. */
class IncrementalOverlapSweep
    : public ::testing::TestWithParam<double>
{
};

TEST_P(IncrementalOverlapSweep, BitIdenticalToScratchAlongDrive)
{
    CoherentDrive::Config dc;
    dc.points = 1500;
    dc.churnFraction = GetParam();
    dc.seed = 11;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(10, 8);

    Octree carried;
    carried.rebuild(drive.generate(0).cloud, ocfg);
    IncrementalOctreeBuilder builder;
    for (std::size_t t = 1; t <= 5; ++t) {
        const Frame frame = drive.generate(t);
        Octree next;
        const bool incremental =
            builder.update(frame.cloud, &carried, ocfg, next);
        // The drive pins the frame AABB, so the alignment guard
        // always passes and the incremental path engages.
        EXPECT_TRUE(incremental) << "frame " << t;
        expectTreesIdentical(next, Octree::build(frame.cloud, ocfg));
        if (incremental) {
            const PointDelta &delta = builder.delta();
            const double expected =
                drive.overlapFraction(1) *
                static_cast<double>(dc.points);
            EXPECT_EQ(delta.retained(),
                      static_cast<std::size_t>(expected + 0.5))
                << "frame " << t;
        }
        carried = std::move(next);
    }
}

INSTANTIATE_TEST_SUITE_P(Churn, IncrementalOverlapSweep,
                         ::testing::Values(0.0, 0.1, 0.5, 0.75, 1.0));

TEST(IncrementalOctree, HandlesCoincidentPointsAcrossFrames)
{
    // Duplicate positions stress the bit-pattern matcher: equal
    // codes, equal bytes, ambiguous pairings. Any pairing is
    // acceptable as long as the output is bit-identical to scratch.
    PointCloud a;
    for (int i = 0; i < 50; ++i)
        a.add({0.3f, 0.3f, 0.3f});
    a.add({0.0f, 0.0f, 0.0f});
    a.add({1.0f, 1.0f, 1.0f});
    PointCloud b = a; // 100% overlap, duplicates intact
    const Octree::Config ocfg = octreeConfig(6, 4);
    Octree prev;
    prev.rebuild(a, ocfg);
    IncrementalOctreeBuilder builder;
    Octree next;
    builder.update(b, &prev, ocfg, next);
    expectTreesIdentical(next, Octree::build(b, ocfg));
}

TEST(IncrementalOctree, ReorderedRetainedPointsStayCorrect)
{
    // Retained points arriving in a different input order violate
    // the builder's order precondition; it must fall back to a
    // scratch rebuild (not produce a wrong tree).
    PointCloud a = randomCloud(400, 21);
    PointCloud b;
    b.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        b.add(a.position(
            static_cast<PointIndex>(a.size() - 1 - i)));
    }
    const Octree::Config ocfg = octreeConfig(8, 8);
    Octree prev;
    prev.rebuild(a, ocfg);
    IncrementalOctreeBuilder builder;
    Octree next;
    builder.update(b, &prev, ocfg, next);
    expectTreesIdentical(next, Octree::build(b, ocfg));
}

TEST(IncrementalOctree, ConfigChangeFallsBackToScratch)
{
    const PointCloud cloud = randomCloud(600, 8);
    Octree prev;
    prev.rebuild(cloud, octreeConfig(8, 8));
    IncrementalOctreeBuilder builder;
    Octree next;
    const bool incremental =
        builder.update(cloud, &prev, octreeConfig(6, 8), next);
    EXPECT_FALSE(incremental);
    expectTreesIdentical(next,
                         Octree::build(cloud, octreeConfig(6, 8)));
}

// ----------------------------------------- cached KNN / occupancy

void
expectGatherIdentical(const GatherResult &a, const GatherResult &b)
{
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    EXPECT_EQ(a.neighbors, b.neighbors);
}

TEST(CachedIndices, IncrementalKnnMatchesFreshOracle)
{
    CoherentDrive::Config dc;
    dc.points = 2000;
    dc.churnFraction = 0.05;
    dc.seed = 31;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(10, 8);
    const SpatialHashKnn::Config kcfg;

    Octree prev;
    prev.rebuild(drive.generate(0).cloud, ocfg);
    SpatialHashKnn prev_knn;
    prev_knn.rebuild(prev.reorderedCloud().positions(), kcfg);

    IncrementalOctreeBuilder builder;
    const Frame f1 = drive.generate(1);
    Octree next;
    ASSERT_TRUE(builder.update(f1.cloud, &prev, ocfg, next));

    SpatialHashKnn inc;
    CellWork work;
    ASSERT_TRUE(inc.rebuildFrom(prev_knn,
                                next.reorderedCloud().positions(),
                                builder.delta(), &work));
    SpatialHashKnn fresh;
    fresh.rebuild(next.reorderedCloud().positions(), kcfg);
    // Every non-empty cell was either remapped or re-bucketed (a
    // re-bucketed cell may have emptied).
    EXPECT_GT(work.rebuilt, 0u);
    EXPECT_LE(work.reused, fresh.nonEmptyCells());
    EXPECT_GE(work.reused + work.rebuilt, fresh.nonEmptyCells());

    std::vector<PointIndex> centrals;
    for (PointIndex i = 0; i < dc.points;
         i += static_cast<PointIndex>(37))
        centrals.push_back(i);
    for (std::size_t k : {1u, 8u, 33u}) {
        expectGatherIdentical(inc.gather(centrals, k),
                              fresh.gather(centrals, k));
    }
    const PointCloud queries = randomCloud(64, 77);
    expectGatherIdentical(inc.gatherAt(queries.positions(), 16),
                          fresh.gatherAt(queries.positions(), 16));
}

TEST(CachedIndices, PatchedOccupancyMatchesFreshOracle)
{
    CoherentDrive::Config dc;
    dc.points = 1800;
    dc.churnFraction = 0.08;
    dc.seed = 41;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(10, 8);

    Octree prev;
    prev.rebuild(drive.generate(0).cloud, ocfg);
    IncrementalOctreeBuilder builder;
    const Frame f1 = drive.generate(1);
    Octree next;
    ASSERT_TRUE(builder.update(f1.cloud, &prev, ocfg, next));

    for (int level = 1; level <= std::min(4, next.depth()); ++level) {
        std::vector<OccupiedCell> prev_occ;
        buildOccupiedCells(prev, level, prev_occ);
        std::vector<OccupiedCell> patched;
        CellWork work;
        ASSERT_TRUE(patchOccupiedCells(next, level, prev, prev_occ,
                                       builder.delta(), patched,
                                       &work))
            << "level " << level;
        std::vector<OccupiedCell> fresh;
        buildOccupiedCells(next, level, fresh);
        ASSERT_EQ(patched.size(), fresh.size()) << "level " << level;
        EXPECT_GT(work.rebuilt, 0u) << "level " << level;
        EXPECT_LE(work.reused, fresh.size()) << "level " << level;
        EXPECT_GE(work.reused + work.rebuilt, fresh.size())
            << "level " << level;
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            EXPECT_EQ(patched[i].cell, fresh[i].cell)
                << "level " << level << " cell " << i;
            EXPECT_EQ(patched[i].first, fresh[i].first)
                << "level " << level << " cell " << i;
            EXPECT_EQ(patched[i].last, fresh[i].last)
                << "level " << level << " cell " << i;
        }
    }
}

// ------------------------------------------- carried state / pool

TEST(TemporalState, CarriedFramesMatchCarrylessEngine)
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
        PreprocessResult cached = engine.buildStage(frame.cloud, &carry);
        PreprocessResult scratch = engine.buildStage(frame.cloud);
        expectTreesIdentical(*cached.tree, *scratch.tree);
        EXPECT_EQ(cached.octreeTableBytes, scratch.octreeTableBytes);
        EXPECT_EQ(cached.octreeBuildSec, scratch.octreeBuildSec);

        engine.sampleStage(cached, k);
        engine.sampleStage(scratch, k);
        EXPECT_EQ(cached.spt, scratch.spt);
        ASSERT_EQ(cached.sampled.size(), scratch.sampled.size());
        for (PointIndex i = 0; i < cached.sampled.size(); ++i) {
            EXPECT_TRUE(sameVec3(cached.sampled.position(i),
                                 scratch.sampled.position(i)));
        }
        EXPECT_EQ(cached.dsu.totalSec(), scratch.dsu.totalSec());
    }
    const TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.frames, 4u);
    EXPECT_EQ(st.octreeMisses, 1u); // only the cold first frame
    EXPECT_EQ(st.octreeHits, 3u);
    EXPECT_EQ(st.knnIncremental + st.knnScratch, 4u);
    EXPECT_EQ(st.occIncremental + st.occScratch, 4u);
}

TEST(TemporalState, CachedIndicesExposedAndCorrect)
{
    CoherentDrive::Config dc;
    dc.points = 1500;
    dc.churnFraction = 0.05;
    dc.seed = 61;
    const CoherentDrive drive(dc);

    PreprocessingEngine::Config ec;
    ec.octree = octreeConfig(10, 16);
    const PreprocessingEngine engine(ec);
    TemporalPreprocessState::Config tc;
    tc.octree = ec.octree;
    TemporalPreprocessState carry(tc);

    engine.buildStage(drive.generate(0).cloud, &carry);
    const PreprocessResult r1 =
        engine.buildStage(drive.generate(1).cloud, &carry);
    ASSERT_NE(r1.rawKnn, nullptr);
    ASSERT_NE(r1.rawOcc, nullptr);
    ASSERT_GE(r1.rawOccLevel, 0);

    SpatialHashKnn oracle;
    oracle.rebuild(r1.tree->reorderedCloud().positions(),
                   SpatialHashKnn::Config{});
    const PointCloud queries = randomCloud(32, 9);
    expectGatherIdentical(r1.rawKnn->gatherAt(queries.positions(), 8),
                          oracle.gatherAt(queries.positions(), 8));

    std::vector<OccupiedCell> fresh;
    buildOccupiedCells(*r1.tree, r1.rawOccLevel, fresh);
    ASSERT_EQ(r1.rawOcc->size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*r1.rawOcc)[i].cell, fresh[i].cell);
        EXPECT_EQ((*r1.rawOcc)[i].first, fresh[i].first);
        EXPECT_EQ((*r1.rawOcc)[i].last, fresh[i].last);
    }

    // The VoxelGrid borrowed-list constructor serves the cached
    // list through the normal accessor.
    const VoxelGrid grid(*r1.tree, r1.rawOccLevel, r1.rawOcc.get());
    EXPECT_EQ(grid.occupiedCells().size(), fresh.size());
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

    // Warm-up: two bundles (current + carried prev) plus the
    // builder scratch size themselves. Node counts fluctuate with
    // churn, so give each pooled bundle a few frames to reach its
    // high-water capacity (vector doubling converges fast).
    for (std::size_t t = 0; t < 6; ++t)
        carry.processFrame(drive.generate(t).cloud);
    const std::uint64_t warm = FrameWorkspace::backingGrowths();
    for (std::size_t t = 6; t < 14; ++t)
        carry.processFrame(drive.generate(t).cloud);
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warm)
        << "steady-state temporal frames grew an arena";
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

TEST(TemporalState, ResetForcesScratchRebuild)
{
    CoherentDrive::Config dc;
    dc.points = 800;
    dc.churnFraction = 0.05;
    dc.seed = 91;
    const CoherentDrive drive(dc);
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(8, 16);
    TemporalPreprocessState carry(tc);
    carry.processFrame(drive.generate(0).cloud);
    carry.processFrame(drive.generate(1).cloud);
    carry.reset();
    carry.processFrame(drive.generate(2).cloud);
    const TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.octreeMisses, 2u); // frame 0 and the post-reset frame
    EXPECT_EQ(st.octreeHits, 1u);
}

TEST(TemporalState, KeyedSlotsMatchOneCarryPerSensor)
{
    // Interleaved sensors through one keyed state: every frame diffs
    // against its own sensor's last frame, so the cache does exactly
    // the work of one private carry per sensor — same hits, same
    // subtree reuse, same cells saved.
    constexpr std::size_t kSensors = 3;
    std::vector<CoherentDrive> drives;
    for (std::size_t s = 0; s < kSensors; ++s) {
        CoherentDrive::Config dc;
        dc.points = 1500;
        dc.churnFraction = 0.02;
        dc.seed = 101 + s;
        drives.emplace_back(dc);
    }
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);
    TemporalPreprocessState keyed(tc);
    std::vector<std::unique_ptr<TemporalPreprocessState>> solo;
    for (std::size_t s = 0; s < kSensors; ++s)
        solo.push_back(std::make_unique<TemporalPreprocessState>(tc));

    for (std::size_t t = 0; t < 4; ++t) {
        for (std::size_t s = 0; s < kSensors; ++s) {
            const Frame frame = drives[s].generate(t);
            const auto mine = keyed.processFrame(
                frame.cloud, static_cast<std::int64_t>(s));
            const auto alone = solo[s]->processFrame(frame.cloud);
            expectTreesIdentical(mine->tree, alone->tree);
        }
    }
    TemporalPreprocessState::Stats sum;
    for (const auto &c : solo) {
        const TemporalPreprocessState::Stats st = c->stats();
        sum.octreeHits += st.octreeHits;
        sum.nodesReused += st.nodesReused;
        sum.nodesErected += st.nodesErected;
        sum.knnCellsReused += st.knnCellsReused;
        sum.knnCellsRebuilt += st.knnCellsRebuilt;
        sum.occCellsReused += st.occCellsReused;
        sum.occCellsRebuilt += st.occCellsRebuilt;
    }
    const TemporalPreprocessState::Stats st = keyed.stats();
    EXPECT_EQ(st.octreeHits, 3u * kSensors);
    EXPECT_EQ(st.octreeMisses, kSensors);
    EXPECT_EQ(st.octreeHits, sum.octreeHits);
    EXPECT_EQ(st.nodesReused, sum.nodesReused);
    EXPECT_EQ(st.nodesErected, sum.nodesErected);
    EXPECT_GT(st.nodesReused, 0u);
    EXPECT_EQ(st.knnCellsReused, sum.knnCellsReused);
    EXPECT_EQ(st.knnCellsRebuilt, sum.knnCellsRebuilt);
    EXPECT_EQ(st.occCellsReused, sum.occCellsReused);
    EXPECT_EQ(st.occCellsRebuilt, sum.occCellsRebuilt);
}

TEST(TemporalState, CellCountersCountWorkSaved)
{
    // A scratch index build rebuilds every non-empty cell; a
    // low-churn incremental frame remaps most cells and re-derives
    // only the dirty ones.
    CoherentDrive::Config dc;
    dc.points = 2000;
    dc.churnFraction = 0.01;
    dc.seed = 111;
    const CoherentDrive drive(dc);
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(10, 16);
    TemporalPreprocessState carry(tc);

    const auto first = carry.processFrame(drive.generate(0).cloud);
    TemporalPreprocessState::Stats st = carry.stats();
    EXPECT_EQ(st.knnCellsReused, 0u);
    EXPECT_EQ(st.knnCellsRebuilt, first->rawKnn.nonEmptyCells());
    EXPECT_EQ(st.occCellsReused, 0u);
    EXPECT_EQ(st.occCellsRebuilt, first->rawOcc.size());

    carry.processFrame(drive.generate(1).cloud);
    const TemporalPreprocessState::Stats st1 = carry.stats();
    ASSERT_EQ(st1.knnIncremental, 1u);
    ASSERT_EQ(st1.occIncremental, 1u);
    const std::uint64_t knn_reused = st1.knnCellsReused;
    const std::uint64_t knn_rebuilt =
        st1.knnCellsRebuilt - st.knnCellsRebuilt;
    const std::uint64_t occ_reused = st1.occCellsReused;
    const std::uint64_t occ_rebuilt =
        st1.occCellsRebuilt - st.occCellsRebuilt;
    EXPECT_GT(knn_reused, knn_rebuilt);
    EXPECT_GT(knn_rebuilt, 0u);
    EXPECT_GT(occ_reused, occ_rebuilt);
    EXPECT_GT(occ_rebuilt, 0u);
}

TEST(TemporalState, ResetDropsEverySensorSlot)
{
    constexpr std::size_t kSensors = 3;
    std::vector<CoherentDrive> drives;
    for (std::size_t s = 0; s < kSensors; ++s) {
        CoherentDrive::Config dc;
        dc.points = 800;
        dc.churnFraction = 0.05;
        dc.seed = 121 + s;
        drives.emplace_back(dc);
    }
    TemporalPreprocessState::Config tc;
    tc.octree = octreeConfig(8, 16);
    TemporalPreprocessState carry(tc);
    const auto feed = [&](std::size_t t) {
        for (std::size_t s = 0; s < kSensors; ++s) {
            carry.processFrame(drives[s].generate(t).cloud,
                               static_cast<std::int64_t>(s));
        }
    };
    feed(0);
    feed(1);
    ASSERT_EQ(carry.stats().octreeHits, kSensors);
    carry.reset();
    feed(2);
    const TemporalPreprocessState::Stats st = carry.stats();
    // Each sensor's post-reset frame is a miss, like its first.
    EXPECT_EQ(st.octreeMisses, 2 * kSensors);
    EXPECT_EQ(st.octreeHits, kSensors);
}

// -------------------------------------------------- edge conditions

TEST(IncrementalOctree, TinyFramesStillBitIdentical)
{
    // Below every brute threshold: 9 points (8 anchors + 1).
    CoherentDrive::Config dc;
    dc.points = 9;
    dc.churnFraction = 1.0;
    dc.seed = 13;
    const CoherentDrive drive(dc);
    const Octree::Config ocfg = octreeConfig(4, 2);
    Octree prev;
    prev.rebuild(drive.generate(0).cloud, ocfg);
    IncrementalOctreeBuilder builder;
    for (std::size_t t = 1; t <= 3; ++t) {
        const Frame frame = drive.generate(t);
        Octree next;
        builder.update(frame.cloud, &prev, ocfg, next);
        expectTreesIdentical(next, Octree::build(frame.cloud, ocfg));
        prev = std::move(next);
    }
}

} // namespace
} // namespace hgpcn
