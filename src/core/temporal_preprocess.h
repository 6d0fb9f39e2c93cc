/**
 * @file
 * Cross-frame preprocessing cache (temporal coherence).
 *
 * Consecutive frames of a drive share most of their points, so
 * their Morton octrees — the only preprocessing index the pipeline
 * reads (OIS descends it; VEG builds its own occupancy over each SA
 * level's sampled cloud) — are mostly identical from frame to
 * frame. TemporalPreprocessState carries the previous frame's
 * octree and builds the next one incrementally via
 * IncrementalOctreeBuilder (code-array diff + dirty-subtree
 * re-erection, octree/incremental_octree.h).
 *
 * The incremental tree is bit-identical to Octree::build — the
 * scratch path stays in the tree as the oracle and the builder
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
 * Storage is pooled: frames lease a PreprocessBundle (the octree)
 * from a BundlePool, whose backing vectors are reused once
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

#include "octree/incremental_octree.h"
#include "octree/octree.h"

namespace hgpcn
{

class MetricsRegistry;

/** One frame's octree, leased from the state's pool; valid after
 * processFrame(). */
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
        // Always 0: the carry maintains no KNN index. Kept only
        // because e2ebench reads them, until its next benchmark
        // change.
        std::uint64_t knnIncremental = 0;
        std::uint64_t knnScratch = 0;
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
     * subtree-reuse % samples on the wall clock, tagged with
     * @p shard. Pass nullptr to detach. Call while no
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
