/**
 * @file
 * HgPCN Pre-processing Engine (paper Section V).
 *
 * The heterogeneous front end of Fig. 4: the Octree-build Unit runs
 * on the host CPU — one pass over the raw frame builds the octree,
 * reorganises the points into SFC order in host memory and emits the
 * Octree-Table — and the Down-sampling Unit on the FPGA executes
 * OIS-FPS against that table, producing the Sampled-Points-Table and
 * the K-point input cloud for the Inference Engine.
 *
 * The functional result (which points get sampled) comes from the
 * real OIS implementation; the latency comes from the CPU device
 * model (build) and the Down-sampling Unit cycle model (sampling).
 */

#ifndef HGPCN_CORE_PREPROCESSING_ENGINE_H
#define HGPCN_CORE_PREPROCESSING_ENGINE_H

#include <cstdint>
#include <memory>

#include "octree/octree.h"
#include "octree/octree_table.h"
#include "sampling/ois_fps_sampler.h"
#include "sim/device_model.h"
#include "sim/down_sampling_unit.h"
#include "sim/sim_config.h"

namespace hgpcn
{

struct BundlePool;
class TemporalPreprocessState;

/** Result of pre-processing one frame. */
struct PreprocessResult
{
    /** The octree over the raw frame (the Inference Engine may
     * reuse it for VEG per Section VIII). It aliases a pooled
     * PreprocessBundle — the carry's when the frame came through a
     * TemporalPreprocessState, else the engine's — whose storage
     * returns to its pool when the last holder lets go; holding the
     * result keeps the tree intact across later builds. */
    std::shared_ptr<Octree> tree;

    /** The K sampled points (coordinates+features), in pick order. */
    PointCloud sampled;

    /** Sampled-Points-Table: reordered-memory addresses of picks. */
    std::vector<PointIndex> spt;

    /** Octree-Table transferred to the FPGA. */
    std::size_t octreeTableBytes = 0;

    /** Modeled CPU seconds for octree build + reorganization. */
    double octreeBuildSec = 0.0;

    /** Down-sampling Unit latency breakdown. */
    DownsamplingUnitResult dsu;

    /** Sampler workload counters. */
    StatSet stats;

    /** @return end-to-end pre-processing seconds. */
    double
    totalSec() const
    {
        return octreeBuildSec + dsu.totalSec();
    }
};

/** The heterogeneous pre-processing front end. */
class PreprocessingEngine
{
  public:
    /** Engine parameters. */
    struct Config
    {
        /** Octree build policy. The defaults keep the Octree-Table
         * within ~10 Mb at 1e6-point frames (Fig. 13). */
        Octree::Config octree{/*maxDepth=*/12, /*leafCapacity=*/64};
        /** Platform timing parameters. */
        SimConfig sim = SimConfig::defaults();
        /** Host CPU running the Octree-build Unit. */
        DeviceSpec hostCpu = DeviceModel::xeonW2255();
        /** Sampling seed. */
        std::uint64_t seed = 1;
    };

    /** Create with default configuration. */
    PreprocessingEngine() : PreprocessingEngine(Config{}) {}

    explicit PreprocessingEngine(const Config &config);

    /**
     * Pre-process a raw frame: build the octree (CPU), transfer the
     * table (MMIO) and down-sample to @p k points (FPGA).
     *
     * Equivalent to buildStage() followed by sampleStage(); the
     * streaming runtime (src/runtime) calls the two halves from
     * separate pipeline stages so the CPU build of frame i+1 can
     * overlap the FPGA work of frame i.
     */
    PreprocessResult process(const PointCloud &raw, std::size_t k) const;

    /**
     * Octree-build Unit half (CPU): build the octree over @p raw,
     * size the Octree-Table and cost the build. The returned result
     * has no sampled points yet — pass it to sampleStage(). Without
     * a carry the octree is rebuilt in place in a bundle leased from
     * this engine's pool (thread-safe; concurrent callers lease
     * distinct bundles).
     *
     * @param carry Optional per-stream pool
     *   (core/temporal_preprocess.h): the octree is rebuilt into one
     *   of its bundles instead of this engine's. Output is
     *   bit-identical either way; its octree config must match this
     *   engine's.
     */
    PreprocessResult buildStage(const PointCloud &raw,
                                TemporalPreprocessState *carry =
                                    nullptr) const;

    /**
     * Down-sampling Unit half (FPGA): OIS-FPS @p partial's octree
     * down to @p k points, filling sampled/spt/dsu and merging the
     * sampler workload counters. @p partial must come from
     * buildStage() of this engine.
     */
    void sampleStage(PreprocessResult &partial, std::size_t k) const;

    /** @return configured parameters. */
    const Config &config() const { return cfg; }

  private:
    Config cfg;
    /** Bundles of the carry-free build: after the first frames every
     * build rebuilds a warmed tree in place instead of allocating and
     * zero-filling a fresh one. Shared by copies of the engine;
     * leases keep it alive past the engine. */
    std::shared_ptr<BundlePool> pool;
};

} // namespace hgpcn

#endif // HGPCN_CORE_PREPROCESSING_ENGINE_H
