/**
 * @file
 * Pipeline stage abstraction of the streaming runtime.
 *
 * A PipelineStage is one station of the stage graph (docs/RUNTIME.md):
 * it performs the real functional work on a FrameTask (octree build,
 * OIS down-sampling, inference, ...) and returns the *modeled* cost
 * of that work in seconds. The cycle models stay authoritative for
 * time — wall-clock threads only carry the functional computation —
 * so a stage's return value, not its host runtime, is what the
 * virtual timeline schedules (see runtime/virtual_timeline.h).
 *
 * Stages must be thread-safe: the executor calls process() from a
 * pool of workers, potentially on several frames concurrently.
 */

#ifndef HGPCN_RUNTIME_STAGE_H
#define HGPCN_RUNTIME_STAGE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/e2e_result.h"
#include "datasets/frame.h"
#include "sim/fault_plan.h"

namespace hgpcn
{

/** One frame moving through the stage graph. */
struct FrameTask
{
    /** Admission order, 0-based; results are emitted in this order. */
    std::size_t index = 0;

    /** The raw sensor frame, borrowed from the caller's stream —
     * run() blocks until every worker joins, so the stream outlives
     * every task. Null only in stage-stub tests. */
    const Frame *frame = nullptr;

    /** The frame's sensor id (StreamTraceIds::sensor): the key the
     * build stage's temporal carry diffs the frame under. -1 when
     * the stream carries no ids (one shared carry slot). */
    std::int64_t sensor = -1;

    /** Filled progressively: build stage -> preprocess.tree/buildSec,
     * down-sample stage -> preprocess.sampled/dsu, inference stage
     * -> inference. */
    E2eResult result;

    /** Modeled seconds charged by each stage (indexed by stage). */
    std::vector<double> stageCostSec;

    /** Resolved fault outcome for this frame (serving/failover.h);
     * default is the clean directive, which changes nothing. The
     * down-sample stage honors the degraded budget, the inference
     * stage charges retries/backoff/slowdown as virtual time. */
    FrameFaultDirective fault;

    /** Virtual seconds the inference stage charged beyond the solo
     * service (retries, backoff, slowdown). Batched execution adds
     * each member's extra to the shared batch occupancy instead of
     * per-frame spans. */
    double faultExtraSec = 0.0;
};

/** One station of the pipeline. */
class PipelineStage
{
  public:
    virtual ~PipelineStage() = default;

    /** @return short stage name for reports ("octree-build", ...). */
    virtual const std::string &name() const = 0;

    /**
     * @return the device this stage occupies in the virtual
     * timeline ("cpu", "fpga", ...). Stages naming the same
     * resource serialize on its units — e.g. OIS down-sampling and
     * inference both run on the one FPGA of Fig. 4.
     */
    virtual const std::string &resource() const = 0;

    /**
     * Execute the stage on @p task (thread-safe).
     *
     * @return modeled seconds this stage's device is busy with the
     * frame — the cost the virtual timeline schedules.
     */
    virtual double process(FrameTask &task) const = 0;

    /**
     * Execute the stage on a coalesced batch of frames (thread-safe).
     *
     * @param tasks The batch, in admission-index order.
     * @param costs Out: per-frame SOLO modeled seconds — what each
     *        frame would cost served alone. These feed the per-frame
     *        stage attributions; the shared batched occupancy charged
     *        to the device is computed separately by the timeline
     *        (ExecutionBackend::batchServiceSec), so batching never
     *        perturbs per-frame modeled numbers.
     *
     * Default: serve each frame solo — stages with no batched
     * execution path compose with the batching pipeline unchanged.
     * Overrides must keep each frame's functional result
     * bit-identical to process() (see InferenceStage::processBatch).
     */
    virtual void processBatch(std::span<FrameTask *const> tasks,
                              std::span<double> costs) const
    {
        for (std::size_t i = 0; i < tasks.size(); ++i)
            costs[i] = process(*tasks[i]);
    }
};

/** A stage defined by a callable — test scaffolding and quick
 * experiments (e.g. a stand-in stage with a fixed modeled cost). */
class FunctionStage : public PipelineStage
{
  public:
    using Fn = std::function<double(FrameTask &)>;

    FunctionStage(std::string stage_name, std::string stage_resource,
                  Fn fn)
        : nm(std::move(stage_name)), res(std::move(stage_resource)),
          body(std::move(fn))
    {
    }

    const std::string &name() const override { return nm; }
    const std::string &resource() const override { return res; }
    double process(FrameTask &task) const override
    {
        return body(task);
    }

  private:
    std::string nm;
    std::string res;
    Fn body;
};

} // namespace hgpcn

#endif // HGPCN_RUNTIME_STAGE_H
