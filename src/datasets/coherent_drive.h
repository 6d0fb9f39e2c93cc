/**
 * @file
 * Temporally-coherent drive-trace generator.
 *
 * The workload the cross-frame preprocessing cache
 * (core/temporal_preprocess.h) is built for: consecutive LiDAR
 * frames of a drive share most of their points. This generator
 * makes that sharing *exact and analyzable* — every frame is P
 * point slots, each slot's position a pure function of
 * (slot, generation), and each frame replaces a fixed number of
 * dynamic slots ("churn"). Retained slots keep bit-identical
 * positions and never reorder, so the fraction of points two
 * frames share is closed-form:
 *
 *   overlapFraction(delta) = (P - min(D, delta * churnPerFrame)) / P
 *
 * where D = P - 8 dynamic slots. Eight anchor slots pin the world
 * box corners with bitwise-stable positions, so every frame's AABB
 * — and hence the octree's cubified root bounds — is identical
 * along the whole trace.
 *
 * Replacement positions follow a drifting ego (egoSpeedMps along a
 * circle inside the box), so churn is spatially localized the way
 * a moving scanner's is. generate(index) is O(P) for any index —
 * slot generations are closed-form, not simulated — and frames are
 * bit-reproducible given (seed, index).
 */

#ifndef HGPCN_DATASETS_COHERENT_DRIVE_H
#define HGPCN_DATASETS_COHERENT_DRIVE_H

#include <cstdint>

#include "datasets/frame.h"
#include "geometry/aabb.h"

namespace hgpcn
{

/** Seeded drive trace with exact, closed-form frame overlap. */
class CoherentDrive
{
  public:
    /** Anchor slots pinning the world box (and frame bounds). */
    static constexpr std::size_t kAnchors = 8;

    /** Generation parameters. */
    struct Config
    {
        /** Points per frame, P (>= kAnchors + 1). */
        std::size_t points = 4096;
        /** Fraction of the D = P - 8 dynamic slots replaced each
         * frame, in [0, 1]. 0 = static scene (100% overlap);
         * any positive value replaces at least one slot. */
        double churnFraction = 0.05;
        /** World box; frames span exactly this AABB. */
        Aabb world{{0.0f, 0.0f, 0.0f}, {100.0f, 100.0f, 20.0f}};
        /** Ego speed (m/s) along a circular path inside the box;
         * replacement points appear near the ego. */
        float egoSpeedMps = 10.0f;
        /** Radius around the ego within which replacements land. */
        float spawnRadius = 25.0f;
        /** Frame timestamps are index / frameRateHz. */
        double frameRateHz = 10.0;
        /** RNG seed (per-slot streams derive from it). */
        std::uint64_t seed = 7;
    };

    explicit CoherentDrive(const Config &config);

    /** @return frame @p index (any index, O(P), reproducible). */
    Frame generate(std::size_t index) const;

    /** @return number of dynamic slots D. */
    std::size_t dynamicSlots() const;

    /** @return dynamic slots replaced per frame step. */
    std::size_t churnPerFrame() const;

    /**
     * @return exact fraction of point slots two frames @p delta
     * steps apart share (bit-identical positions at equal slot
     * index): (P - min(D, delta * churnPerFrame())) / P.
     */
    double overlapFraction(std::size_t delta) const;

    /** @return configured parameters. */
    const Config &config() const { return cfg; }

  private:
    Config cfg;
};

} // namespace hgpcn

#endif // HGPCN_DATASETS_COHERENT_DRIVE_H
