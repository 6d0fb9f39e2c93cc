#include "core/temporal_preprocess.h"

#include "common/logging.h"
#include "core/frame_workspace.h"

namespace hgpcn
{

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

std::shared_ptr<PreprocessBundle>
TemporalPreprocessState::processFrame(const PointCloud &raw)
{
    HGPCN_ASSERT(!raw.empty(), "cannot preprocess an empty frame");
    std::shared_ptr<PreprocessBundle> bundle = leaseBundle(pool);
    bundle->tree.rebuild(raw, cfg.octree);
    frames.fetch_add(1, std::memory_order_relaxed);
    return bundle;
}

TemporalPreprocessState::Stats
TemporalPreprocessState::stats() const
{
    Stats st;
    st.frames = frames.load(std::memory_order_relaxed);
    st.octreeMisses = st.frames;
    return st;
}

} // namespace hgpcn
