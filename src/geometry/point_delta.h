/**
 * @file
 * Cross-frame point-set delta in SFC (reordered) index space.
 *
 * Consecutive LiDAR sweeps overlap heavily; the temporal-coherence
 * path (octree/incremental_octree.h) diffs the new frame's sorted
 * m-code array against the previous one and describes the outcome as
 * a PointDelta: which old reordered slots survived (and where they
 * landed), which were evicted, and which new slots are fresh
 * insertions. The builder then re-erects only the subtrees whose
 * point ranges are dirty (rangeDirty) and block-copies the rest.
 *
 * Invariants (established by the producer, relied on by consumers):
 *  - newFromOld is monotone over retained slots: old SFC order is a
 *    suborder of new SFC order, so remapping a sorted run of
 *    retained entries preserves its sort.
 *  - insertedNew and evictedOld are strictly ascending.
 *  - retained + inserted == new size; retained + evicted == old size.
 */

#ifndef HGPCN_GEOMETRY_POINT_DELTA_H
#define HGPCN_GEOMETRY_POINT_DELTA_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/point_cloud.h"

namespace hgpcn
{

/** Sentinel for "this old slot has no new counterpart". */
constexpr PointIndex kNoPoint = static_cast<PointIndex>(-1);

/** Insert/evict/remap description between two stamped frames. */
struct PointDelta
{
    /** For each old reordered slot: its new reordered slot, or
     * kNoPoint when the point was evicted. Size = old point count. */
    std::vector<PointIndex> newFromOld;

    /** New reordered slots holding inserted points, ascending. */
    std::vector<PointIndex> insertedNew;

    /** Old reordered slots of evicted points, ascending. */
    std::vector<PointIndex> evictedOld;

    /** @return points carried over from the previous frame. */
    std::size_t
    retained() const
    {
        return newFromOld.size() - evictedOld.size();
    }

    /** Drop all entries (capacity retained for reuse). */
    void
    clear()
    {
        newFromOld.clear();
        insertedNew.clear();
        evictedOld.clear();
    }

    /** @return true when any new slot in [first, last) was inserted
     * this frame — the "dirty range" test of the incremental
     * builders. O(log inserted). */
    bool
    rangeDirty(PointIndex first, PointIndex last) const
    {
        const auto it = std::lower_bound(insertedNew.begin(),
                                         insertedNew.end(), first);
        return it != insertedNew.end() && *it < last;
    }
};

} // namespace hgpcn

#endif // HGPCN_GEOMETRY_POINT_DELTA_H
