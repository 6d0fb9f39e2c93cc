/**
 * @file
 * The unit of work of the streaming runtime.
 *
 * A FrameTask carries one frame through the three stages of
 * runtime/stages.h (octree build, OIS down-sampling, inference).
 * Each stage performs the real functional work and records the
 * *modeled* cost of that work in seconds. The cycle models stay
 * authoritative for time — host threads only carry the functional
 * computation — so the recorded costs, not host runtimes, are what
 * the virtual timeline schedules (see runtime/virtual_timeline.h).
 */

#ifndef HGPCN_RUNTIME_STAGE_H
#define HGPCN_RUNTIME_STAGE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/e2e_result.h"
#include "datasets/frame.h"
#include "sim/fault_plan.h"

namespace hgpcn
{

/** One frame moving through the stages. */
struct FrameTask
{
    /** Admission order, 0-based; results are emitted in this order. */
    std::size_t index = 0;

    /** The raw sensor frame, borrowed from the caller's stream —
     * run() blocks until its helper thread joins, so the stream
     * outlives every task. */
    const Frame *frame = nullptr;

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

/** In-order per-frame hook, invoked on the thread that called run(). */
using FrameTaskCallback = std::function<void(const FrameTask &)>;

} // namespace hgpcn

#endif // HGPCN_RUNTIME_STAGE_H
