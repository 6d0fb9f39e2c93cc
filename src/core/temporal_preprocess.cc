#include "core/temporal_preprocess.h"

#include "common/logging.h"
#include "core/frame_workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

/** One frame's cache outcome, distilled for the metrics mirror. */
struct FrameAttribution
{
    bool incremental = false;
    std::uint64_t nodesReused = 0;
    std::uint64_t nodesErected = 0;
    std::uint64_t retained = 0;
    std::uint64_t inserted = 0;
    std::uint64_t evicted = 0;
};

/** Mirror one frame's outcome into "temporal.*" counters. */
void
recordMetrics(MetricsRegistry &reg, const FrameAttribution &fa)
{
    reg.counter("temporal.frames").add();
    reg.counter(fa.incremental ? "temporal.octree.hits"
                               : "temporal.octree.misses")
        .add();
    if (fa.incremental) {
        reg.counter("temporal.nodes.reused").add(fa.nodesReused);
        reg.counter("temporal.nodes.erected").add(fa.nodesErected);
        reg.counter("temporal.points.retained").add(fa.retained);
        reg.counter("temporal.points.inserted").add(fa.inserted);
        reg.counter("temporal.points.evicted").add(fa.evicted);
    }
}

/** Per-frame attribution samples on the wall clock: the "why is
 *  subtree reuse stuck" question, readable frame by frame from one
 *  trace instead of a terminal aggregate. */
void
recordTrace(std::uint64_t frame_no, std::int64_t shard,
            const FrameAttribution &fa)
{
#ifndef HGPCN_TRACING_DISABLED
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    const std::string track =
        shard >= 0 ? "shard" + std::to_string(shard) + "/temporal"
                   : "runner/temporal";
    const double now = tracer.wallNowSec();
    const std::uint64_t touched = fa.nodesReused + fa.nodesErected;
    const double reuse_pct =
        touched > 0 ? 100.0 * static_cast<double>(fa.nodesReused) /
                          static_cast<double>(touched)
                    : 0.0;
    tracer.counter(TraceClock::Wall, now, "subtree-reuse-pct", track,
                   reuse_pct);
    TraceIds ids;
    ids.frame = static_cast<std::int64_t>(frame_no);
    ids.shard = shard;
    tracer.instant(TraceClock::Wall, now,
                   fa.incremental ? "octree:incremental"
                                  : "octree:scratch",
                   "temporal", track, ids);
#else
    (void)frame_no;
    (void)shard;
    (void)fa;
#endif
}

} // namespace

std::shared_ptr<PreprocessBundle>
leaseBundle(const std::shared_ptr<BundlePool> &pool)
{
    PreprocessBundle *bundle = nullptr;
    {
        std::lock_guard<std::mutex> lock(pool->mu);
        if (pool->free_list.empty()) {
            pool->owned.push_back(
                std::make_unique<PreprocessBundle>());
            FrameWorkspace::noteGrowth();
            bundle = pool->owned.back().get();
        } else {
            // FIFO: bundles come back in frame order (results are
            // released in stream order), so re-running the same
            // stream hands frame i the bundle already sized for it
            // — the steady-state zero-growth contract.
            bundle = pool->free_list.front();
            pool->free_list.erase(pool->free_list.begin());
        }
    }
    // The deleter holds the pool alive, so bundles may outlive the
    // state or engine that leased them (results escaping a stream
    // run or a system).
    return std::shared_ptr<PreprocessBundle>(
        bundle, [pool](PreprocessBundle *b) {
            std::lock_guard<std::mutex> lock(pool->mu);
            pool->free_list.push_back(b);
        });
}

TemporalPreprocessState::TemporalPreprocessState(const Config &config)
    : cfg(config), pool(std::make_shared<BundlePool>())
{
}

std::shared_ptr<PreprocessBundle> &
TemporalPreprocessState::slotFor(std::int64_t key)
{
    for (Slot &slot : slots) {
        if (slot.key == key)
            return slot.bundle;
    }
    slots.push_back({key, nullptr});
    return slots.back().bundle;
}

std::shared_ptr<PreprocessBundle>
TemporalPreprocessState::processFrame(const PointCloud &raw,
                                      std::int64_t key)
{
    HGPCN_ASSERT(!raw.empty(), "cannot preprocess an empty frame");
    std::lock_guard<std::mutex> lock(mu);

    std::shared_ptr<PreprocessBundle> &prev = slotFor(key);
    std::shared_ptr<PreprocessBundle> bundle = leaseBundle(pool);
    HGPCN_ASSERT(bundle.get() != prev.get(),
                 "pool leased the carried frame's bundle");

    const Octree *prev_tree =
        (cfg.temporalCache && prev != nullptr) ? &prev->tree : nullptr;
    const bool incremental =
        builder.update(raw, prev_tree, cfg.octree, bundle->tree);

    FrameAttribution fa;
    fa.incremental = incremental;

    ++st.frames;
    if (incremental) {
        ++st.octreeHits;
        const PointDelta &delta = builder.delta();
        fa.retained = delta.retained();
        fa.inserted = delta.insertedNew.size();
        fa.evicted = delta.evictedOld.size();
        fa.nodesReused = builder.nodesReused();
        fa.nodesErected = builder.nodesErected();
        st.retainedPoints += fa.retained;
        st.insertedPoints += fa.inserted;
        st.evictedPoints += fa.evicted;
        st.nodesReused += fa.nodesReused;
        st.nodesErected += fa.nodesErected;
    } else {
        ++st.octreeMisses;
    }

    if (metrics != nullptr)
        recordMetrics(*metrics, fa);
    recordTrace(st.frames, obsShard, fa);

    prev = bundle;
    return bundle;
}

void
TemporalPreprocessState::setObservability(MetricsRegistry *reg,
                                          std::int64_t shard)
{
    std::lock_guard<std::mutex> lock(mu);
    metrics = reg;
    obsShard = shard;
}

void
TemporalPreprocessState::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    slots.clear();
}

TemporalPreprocessState::Stats
TemporalPreprocessState::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

} // namespace hgpcn
