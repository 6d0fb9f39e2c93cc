#include "core/preprocessing_engine.h"

#include "common/logging.h"
#include "core/temporal_preprocess.h"

namespace hgpcn
{

PreprocessingEngine::PreprocessingEngine(const Config &config)
    : cfg(config), pool(std::make_shared<BundlePool>())
{
}

PreprocessResult
PreprocessingEngine::process(const PointCloud &raw, std::size_t k) const
{
    // Fail before the octree build, not after it (sampleStage
    // re-checks for callers driving the stages separately).
    HGPCN_ASSERT(raw.size() >= k, "frame smaller than K: ", raw.size(),
                 " < ", k);
    PreprocessResult result = buildStage(raw);
    sampleStage(result, k);
    return result;
}

PreprocessResult
PreprocessingEngine::buildStage(const PointCloud &raw,
                                TemporalPreprocessState *carry) const
{
    PreprocessResult result;

    // Octree-build Unit (CPU): build + host-memory pre-configuration
    // in one pass, rebuilt in place in a pooled bundle: the carry's
    // when given, else this engine's. Either way the tree (and every
    // downstream output) is bit-identical to Octree::build.
    if (carry != nullptr) {
        HGPCN_ASSERT(
            carry->config().octree.maxDepth == cfg.octree.maxDepth &&
                carry->config().octree.leafCapacity ==
                    cfg.octree.leafCapacity,
            "carry octree config does not match the engine's");
        std::shared_ptr<PreprocessBundle> bundle =
            carry->processFrame(raw);
        result.tree =
            std::shared_ptr<Octree>(bundle, &bundle->tree);
    } else {
        // Lease under the pool mutex, build outside it: concurrent
        // callers rebuild their own bundles in parallel.
        std::shared_ptr<PreprocessBundle> bundle = leaseBundle(pool);
        bundle->tree.rebuild(raw, cfg.octree);
        result.tree = std::shared_ptr<Octree>(bundle, &bundle->tree);
    }
    Octree &tree = *result.tree;

    // The Octree-Table row count equals the node count, so the MMIO
    // transfer size needs no materialized table.
    result.octreeTableBytes =
        OctreeTable::sizeBytesFor(tree.nodes().size());

    const DeviceModel host(cfg.hostCpu);
    result.octreeBuildSec = host.octreeBuildSec(tree.buildStats());
    result.stats = tree.buildStats();
    return result;
}

void
PreprocessingEngine::sampleStage(PreprocessResult &partial,
                                 std::size_t k) const
{
    HGPCN_ASSERT(partial.tree != nullptr,
                 "sampleStage needs a buildStage result");
    Octree &tree = *partial.tree;
    HGPCN_ASSERT(tree.reorderedCloud().size() >= k,
                 "frame smaller than K: ", tree.reorderedCloud().size(),
                 " < ", k);

    // Down-sampling Unit (FPGA): OIS-FPS over the table.
    OisFpsSampler::Config sampler_cfg;
    sampler_cfg.octree = cfg.octree;
    sampler_cfg.seed = cfg.seed;
    const OisFpsSampler sampler(sampler_cfg);
    SampleResult sample = sampler.sampleWithTree(tree, k);

    const DownsamplingUnitSim dsu_sim(cfg.sim);
    partial.dsu =
        dsu_sim.run(sample.stats, k, partial.octreeTableBytes);

    // Materialize the sampled input cloud (pick order preserved).
    partial.sampled = tree.reorderedCloud().gather(sample.spt);
    partial.spt = std::move(sample.spt);
    partial.stats.merge(sample.stats);
}

} // namespace hgpcn
