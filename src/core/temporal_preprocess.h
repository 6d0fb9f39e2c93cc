/**
 * @file
 * Pooled per-frame octree storage.
 *
 * Every octree the pipeline builds lives in a PreprocessBundle
 * leased from a BundlePool: the bundle's backing vectors are reused
 * once every in-flight frame has a warmed bundle, keeping the steady
 * state free of octree allocation (growth counted via
 * FrameWorkspace::noteGrowth, pinned by tests/test_runtime.cc).
 * PreprocessingEngine::buildStage leases from a pool of its own.
 *
 * TemporalPreprocessState is a stream's private pool: each frame is
 * rebuilt from scratch (Octree::rebuild) into a bundle of that pool.
 * Nothing is carried across frames (docs/PERFORMANCE.md §temporal
 * coherence); the type and the always-zero carry counters in its
 * Stats remain because the end-to-end benchmark driver still reads
 * them.
 */

#ifndef HGPCN_CORE_TEMPORAL_PREPROCESS_H
#define HGPCN_CORE_TEMPORAL_PREPROCESS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "octree/octree.h"

namespace hgpcn
{

/** One frame's octree, leased from a pool. */
struct PreprocessBundle
{
    Octree tree;
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

/** A stream's private bundle pool; see file comment. */
class TemporalPreprocessState
{
  public:
    /** Build policy. */
    struct Config
    {
        /** Octree build parameters (must match the engine's). */
        Octree::Config octree;
    };

    /** Cumulative build counters (monotone). */
    struct Stats
    {
        std::uint64_t frames = 0;
        std::uint64_t octreeMisses = 0; //!< scratch builds: every frame
        // Always 0: nothing is carried across frames. Kept only
        // because the end-to-end benchmark driver reads them, until
        // its next change.
        std::uint64_t octreeHits = 0;
        std::uint64_t nodesReused = 0;
        std::uint64_t nodesErected = 0;
        std::uint64_t knnIncremental = 0;
        std::uint64_t knnScratch = 0;
    };

    explicit TemporalPreprocessState(const Config &config);

    /**
     * Build @p raw's octree into a bundle of this state's pool.
     * Thread-safe. The returned bundle stays valid as long as the
     * caller holds it (its storage returns to the pool on release,
     * possibly after this state is destroyed).
     */
    std::shared_ptr<PreprocessBundle> processFrame(const PointCloud &raw);

    /** @return build counters snapshot. */
    Stats stats() const;

    /** @return configured policy. */
    const Config &config() const { return cfg; }

  private:
    Config cfg;
    std::shared_ptr<BundlePool> pool;
    std::atomic<std::uint64_t> frames{0};
};

} // namespace hgpcn

#endif // HGPCN_CORE_TEMPORAL_PREPROCESS_H
