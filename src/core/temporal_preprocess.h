/**
 * @file
 * Cross-frame preprocessing cache (temporal coherence).
 *
 * Consecutive frames of a drive share most of their points, so the
 * per-frame preprocessing indices — the Morton octree, the
 * spatial-hash KNN buckets over the reordered cloud and the
 * VoxelGrid occupancy list — are mostly identical from frame to
 * frame. TemporalPreprocessState carries the previous frame's
 * indices and rebuilds the next frame's incrementally:
 *
 *  - the octree via IncrementalOctreeBuilder (code-array diff +
 *    dirty-subtree re-erection, octree/incremental_octree.h);
 *  - the KNN buckets via SpatialHashKnn::rebuildFrom (dirty cells
 *    re-bucketed, clean cells remapped);
 *  - the occupancy list via patchOccupiedCells (clean entries
 *    remapped, dirty cells re-read from the new tree).
 *
 * All three are bit-identical to their from-scratch builds — the
 * scratch path stays in the tree as the oracle and every cache
 * falls back to it when its preconditions fail — so enabling the
 * cache changes host wall-clock only; sampled outputs and modeled
 * paper numbers are unchanged by construction.
 *
 * The carry is keyed by sensor: each key (a stream's sensor id)
 * keeps its own previous frame, so a runner serving interleaved
 * sensors diffs every frame against the same sensor's last frame,
 * not against whichever sensor came before it. Only the carried
 * bundles are per key; the builder scratch and the bundle pool are
 * shared, so an extra sensor costs one live bundle. A key's slot
 * lives until reset(), so memory grows with the number of distinct
 * sensors a state has seen, not with stream length.
 *
 * Storage is pooled: frames lease a PreprocessBundle (octree +
 * indices) from a BundlePool, whose backing vectors are reused once
 * every in-flight frame has a warmed bundle, keeping the steady
 * state free of arena-backing allocation (growth counted via
 * FrameWorkspace::noteGrowth, pinned by tests/test_runtime.cc). The
 * carry-free PreprocessingEngine::buildStage leases from a pool of
 * its own, so every octree build in the library is pooled.
 * Thread safety: processFrame() serializes under a mutex; frames
 * arriving out of order (or under the wrong key) only lower the hit
 * rate, never change outputs.
 */

#ifndef HGPCN_CORE_TEMPORAL_PREPROCESS_H
#define HGPCN_CORE_TEMPORAL_PREPROCESS_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "knn/spatial_hash_knn.h"
#include "octree/incremental_octree.h"
#include "octree/octree.h"
#include "octree/voxel_grid.h"

namespace hgpcn
{

class MetricsRegistry;

/**
 * One frame's preprocessing indices, leased from the state's pool.
 * The octree is always valid after processFrame(); the raw-cloud
 * KNN index and occupancy list only when cacheIndices is on.
 */
struct PreprocessBundle
{
    Octree tree;
    SpatialHashKnn rawKnn;     //!< over tree.reorderedCloud()
    bool rawKnnBuilt = false;
    std::vector<OccupiedCell> rawOcc; //!< occupancy at rawOccLevel
    int rawOccLevel = -1;      //!< -1 = not built
};

/**
 * Thread-safe pool of PreprocessBundles. A pool only grows: a
 * released bundle keeps its warmed storage for the next lease.
 */
struct BundlePool
{
    std::mutex mu; //!< guards owned and free_list only
    std::vector<std::unique_ptr<PreprocessBundle>> owned;
    std::vector<PreprocessBundle *> free_list; //!< FIFO of released
};

/**
 * Lease a bundle from @p pool: the oldest released one, or a new
 * one (counted as FrameWorkspace growth) when none is free. Only
 * the free-list update runs under the pool mutex, so concurrent
 * lessees build into their bundles in parallel. The bundle returns
 * to the pool when its last shared_ptr is released; the lease holds
 * the pool alive, so bundles may outlive whoever owns the pool.
 * Bundle contents are whatever its last lessee left: rebuild every
 * field you read.
 */
std::shared_ptr<PreprocessBundle>
leaseBundle(const std::shared_ptr<BundlePool> &pool);

/** Per-stream carried preprocessing state; see file comment. */
class TemporalPreprocessState
{
  public:
    /** Cache policy. */
    struct Config
    {
        /** Octree build parameters (must match the engine's). */
        Octree::Config octree;
        /** Master switch: diff frames and update incrementally.
         * Off = every frame builds from scratch (still pooled). */
        bool temporalCache = true;
        /** Maintain the raw-cloud KNN buckets and occupancy list
         * across frames alongside the octree. */
        bool cacheIndices = true;
        /** KNN index parameters for the cached buckets. */
        SpatialHashKnn::Config knn;
    };

    /** Cumulative cache telemetry (monotone counters). */
    struct Stats
    {
        std::uint64_t frames = 0;
        std::uint64_t octreeHits = 0;   //!< incremental updates
        std::uint64_t octreeMisses = 0; //!< scratch rebuilds
        std::uint64_t retainedPoints = 0;
        std::uint64_t insertedPoints = 0;
        std::uint64_t evictedPoints = 0;
        std::uint64_t nodesReused = 0;
        std::uint64_t nodesErected = 0;
        std::uint64_t knnIncremental = 0;
        std::uint64_t knnScratch = 0;
        std::uint64_t occIncremental = 0;
        std::uint64_t occScratch = 0;
        // Work saved, in cells (geometry/point_delta.h CellWork): a
        // scratch index build counts every non-empty cell rebuilt.
        std::uint64_t knnCellsReused = 0;
        std::uint64_t knnCellsRebuilt = 0;
        std::uint64_t occCellsReused = 0;
        std::uint64_t occCellsRebuilt = 0;
    };

    /** Key of a stream without sensor ids: one carried slot. */
    static constexpr std::int64_t kDefaultKey = -1;

    explicit TemporalPreprocessState(const Config &config);

    /**
     * Build the frame's indices, reusing those of the previous frame
     * carried under @p key where the diff allows. The returned
     * bundle stays valid as long as the caller holds it (its
     * storage returns to the pool on release, possibly after this
     * state is destroyed).
     */
    std::shared_ptr<PreprocessBundle>
    processFrame(const PointCloud &raw, std::int64_t key = kDefaultKey);

    /** Drop every key's carried frame (each key's next frame builds
     * from scratch). */
    void reset();

    /**
     * Attach an observability sink: every processFrame() mirrors its
     * cache telemetry into "temporal.*" counters of @p metrics and —
     * when the global Tracer is recording — emits per-frame
     * subtree-reuse % and KNN-hit counter samples on the wall clock,
     * tagged with @p shard. Pass nullptr to detach. Call while no
     * frames are in flight.
     */
    void setObservability(MetricsRegistry *metrics,
                          std::int64_t shard = -1);

    /** @return cache telemetry snapshot. */
    Stats stats() const;

    /** @return configured policy. */
    const Config &config() const { return cfg; }

  private:
    /** One key's carried frame. */
    struct Slot
    {
        std::int64_t key;
        std::shared_ptr<PreprocessBundle> bundle;
    };

    /** @return @p key's slot, opened empty on first use. */
    std::shared_ptr<PreprocessBundle> &slotFor(std::int64_t key);

    Config cfg;
    std::shared_ptr<BundlePool> pool;

    mutable std::mutex mu;
    IncrementalOctreeBuilder builder;
    /** Carried frames, one per key seen (a runner serves a handful
     * of sensors, so a flat list beats a hash map). */
    std::vector<Slot> slots;
    Stats st;
    MetricsRegistry *metrics = nullptr; //!< optional telemetry mirror
    std::int64_t obsShard = -1;         //!< shard tag for trace events
};

} // namespace hgpcn

#endif // HGPCN_CORE_TEMPORAL_PREPROCESS_H
