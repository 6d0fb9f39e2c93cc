/**
 * @file
 * Uniform voxel-grid view of an octree level.
 *
 * The Voxel-Expanded Gathering method (Section VI) expands voxel
 * shells around a central point's voxel: ring 1 is the 26 voxels
 * touching the seed voxel, ring 2 the next shell, and so on (Fig. 8).
 * Because the reordered point array is sorted by full-depth m-code,
 * the points of *any* voxel at *any* level form a contiguous range,
 * so each ring cell costs one Octree-Table range lookup.
 */

#ifndef HGPCN_OCTREE_VOXEL_GRID_H
#define HGPCN_OCTREE_VOXEL_GRID_H

#include <cstdint>
#include <functional>
#include <vector>

#include "octree/octree.h"

namespace hgpcn
{

/** Integer cell address at a fixed octree level. */
struct GridCell
{
    std::int32_t x = 0;
    std::int32_t y = 0;
    std::int32_t z = 0;

    bool
    operator==(const GridCell &o) const
    {
        return x == o.x && y == o.y && z == o.z;
    }
};

/** One occupied cell of a level: coordinates + reordered range. */
struct OccupiedCell
{
    GridCell cell;
    PointIndex first = 0; //!< reordered range start
    PointIndex last = 0;  //!< reordered range end (exclusive)
};

/**
 * A read-only uniform-grid view over one level of an octree.
 */
class VoxelGrid
{
  public:
    /**
     * Create a view at @p level (0..tree.config().maxDepth).
     * The Octree must outlive the view.
     */
    VoxelGrid(const Octree &tree, int level);

    /** @return level viewed. */
    int level() const { return lvl; }

    /** @return cells per axis (2^level). */
    std::int32_t cellsPerAxis() const { return axis_cells; }

    /** @return cell containing position @p p. */
    GridCell cellOf(const Vec3 &p) const;

    /** @return true when @p c lies inside the grid. */
    bool inGrid(const GridCell &c) const;

    /** @return m-code of cell @p c at this level. */
    morton::Code cellCode(const GridCell &c) const;

    /**
     * @return [first, last) of reordered point indices inside cell
     * @p c (empty for out-of-grid cells).
     */
    std::pair<PointIndex, PointIndex> cellRange(const GridCell &c) const;

    /** @return number of points in cell @p c. */
    std::uint32_t cellCount(const GridCell &c) const;

    /**
     * Visit every in-grid cell of the Chebyshev shell at distance
     * @p ring from @p center (ring 0 = the center cell itself).
     *
     * @return number of cells visited.
     */
    std::size_t forEachRingCell(
        const GridCell &center, int ring,
        const std::function<void(const GridCell &)> &fn) const;

    /** @return total points in the Chebyshev shell at @p ring. */
    std::uint32_t ringPointCount(const GridCell &center, int ring) const;

    /**
     * Append the reordered point indices of the shell at @p ring to
     * @p out.
     * @return number of table lookups performed (hardware cost).
     */
    std::size_t gatherRingPoints(const GridCell &center, int ring,
                                 std::vector<PointIndex> &out) const;

    /**
     * @return in-grid cell count of the shell at @p ring — the
     * number forEachRingCell() would visit — in O(1) (clipped-box
     * difference). This is the table-lookup cost the DSU model
     * charges for the ring, independent of how the host computed
     * the ring's points.
     */
    std::size_t shellCellCount(const GridCell &center, int ring) const;

    /**
     * @return the level's occupied cells with their reordered
     * ranges, sorted by (x, y, z); built lazily in one O(n) pass
     * over the point codes. The host-side shortcut behind
     * ringPointCount()/gatherRingPoints(): sparse or deep levels
     * serve rings by scanning this list instead of visiting every
     * (mostly empty) shell cell — same points, same order, same
     * modeled lookup counts (docs/PERFORMANCE.md).
     */
    const std::vector<OccupiedCell> &occupiedCells() const;

    /**
     * Pick a gathering level such that the expected voxel occupancy
     * suits K-neighbor gathering: roughly one to two points per
     * voxel, clamped to the octree's built depth.
     */
    static int autoLevel(std::size_t n_points, int max_level);

  private:
    /** @return in-grid cells within Chebyshev distance @p radius of
     * @p center (clipped box volume); 0 when radius < 0. */
    std::size_t boxCellCount(const GridCell &center,
                             std::int32_t radius) const;

    const Octree &octree;
    int lvl;
    std::int32_t axis_cells;
    /** Lazy occupied-cell list (single-threaded use, like the
     * gatherers that own grid views). */
    mutable std::vector<OccupiedCell> occ;
    mutable bool occ_built = false;
};

} // namespace hgpcn

#endif // HGPCN_OCTREE_VOXEL_GRID_H
