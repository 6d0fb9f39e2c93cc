#include "octree/voxel_grid.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"

namespace hgpcn
{

VoxelGrid::VoxelGrid(const Octree &tree, int level)
    : octree(tree), lvl(level),
      axis_cells(static_cast<std::int32_t>(1) << level)
{
    HGPCN_ASSERT(level >= 0 && level <= tree.config().maxDepth,
                 "grid level ", level, " outside octree depth ",
                 tree.config().maxDepth);
}

GridCell
VoxelGrid::cellOf(const Vec3 &p) const
{
    morton::CellCoord x = 0, y = 0, z = 0;
    morton::cellOf(p, octree.rootBounds(), lvl, x, y, z);
    return {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y),
            static_cast<std::int32_t>(z)};
}

bool
VoxelGrid::inGrid(const GridCell &c) const
{
    return c.x >= 0 && c.x < axis_cells && c.y >= 0 && c.y < axis_cells &&
           c.z >= 0 && c.z < axis_cells;
}

morton::Code
VoxelGrid::cellCode(const GridCell &c) const
{
    HGPCN_ASSERT(inGrid(c), "cell outside grid");
    if (lvl == 0)
        return 0; // the single root cell
    return morton::encode3(static_cast<morton::CellCoord>(c.x),
                           static_cast<morton::CellCoord>(c.y),
                           static_cast<morton::CellCoord>(c.z), lvl);
}

std::pair<PointIndex, PointIndex>
VoxelGrid::cellRange(const GridCell &c) const
{
    if (!inGrid(c))
        return {0, 0};
    if (lvl == 0) {
        return {0,
                static_cast<PointIndex>(octree.pointCodes().size())};
    }
    return octree.voxelRange(cellCode(c), lvl);
}

std::uint32_t
VoxelGrid::cellCount(const GridCell &c) const
{
    const auto [first, last] = cellRange(c);
    return last - first;
}

std::size_t
VoxelGrid::forEachRingCell(
    const GridCell &center, int ring,
    const std::function<void(const GridCell &)> &fn) const
{
    HGPCN_ASSERT(ring >= 0, "negative ring");
    std::size_t visited = 0;
    if (ring == 0) {
        if (inGrid(center)) {
            fn(center);
            ++visited;
        }
        return visited;
    }
    // The shell is the set of cells whose Chebyshev distance to the
    // center is exactly `ring`: at least one axis offset is +/-ring.
    for (std::int32_t dx = -ring; dx <= ring; ++dx) {
        for (std::int32_t dy = -ring; dy <= ring; ++dy) {
            for (std::int32_t dz = -ring; dz <= ring; ++dz) {
                const bool on_shell = dx == ring || dx == -ring ||
                                      dy == ring || dy == -ring ||
                                      dz == ring || dz == -ring;
                if (!on_shell)
                    continue;
                const GridCell c{center.x + dx, center.y + dy,
                                 center.z + dz};
                if (!inGrid(c))
                    continue;
                fn(c);
                ++visited;
            }
        }
    }
    return visited;
}

std::size_t
VoxelGrid::boxCellCount(const GridCell &center,
                        std::int32_t radius) const
{
    if (radius < 0)
        return 0;
    const auto span = [radius](std::int32_t c, std::int32_t n) {
        const std::int32_t lo = std::max(c - radius, std::int32_t{0});
        const std::int32_t hi = std::min(c + radius, n - 1);
        return hi >= lo ? static_cast<std::size_t>(hi - lo + 1)
                        : std::size_t{0};
    };
    return span(center.x, axis_cells) * span(center.y, axis_cells) *
           span(center.z, axis_cells);
}

std::size_t
VoxelGrid::shellCellCount(const GridCell &center, int ring) const
{
    HGPCN_ASSERT(ring >= 0, "negative ring");
    if (ring == 0)
        return inGrid(center) ? 1 : 0;
    return boxCellCount(center, ring) -
           boxCellCount(center, ring - 1);
}

namespace
{

/** The (x, y, z) order ring scans and per-cell walks agree on. */
inline bool
cellLess(const GridCell &a, const GridCell &b)
{
    if (a.x != b.x)
        return a.x < b.x;
    if (a.y != b.y)
        return a.y < b.y;
    return a.z < b.z;
}

/** The occupied cells of @p level over @p tree, into @p out. */
void
buildOccupiedCells(const Octree &tree, int level,
                   std::vector<OccupiedCell> &out)
{
    out.clear();
    const std::vector<morton::Code> &codes = tree.pointCodes();
    const std::size_t n = codes.size();
    if (level == 0) {
        if (n > 0) {
            out.push_back({GridCell{0, 0, 0}, 0,
                           static_cast<PointIndex>(n)});
        }
        return;
    }
    // Points are sorted by full-depth m-code, so every level-level
    // cell is one contiguous run of equal code prefixes.
    const int shift = 3 * (tree.config().maxDepth - level);
    std::size_t i = 0;
    while (i < n) {
        const morton::Code prefix = codes[i] >> shift;
        std::size_t j = i + 1;
        while (j < n && (codes[j] >> shift) == prefix)
            ++j;
        morton::CellCoord x = 0, y = 0, z = 0;
        morton::decode3(prefix, level, x, y, z);
        out.push_back({GridCell{static_cast<std::int32_t>(x),
                                static_cast<std::int32_t>(y),
                                static_cast<std::int32_t>(z)},
                       static_cast<PointIndex>(i),
                       static_cast<PointIndex>(j)});
        i = j;
    }
    // Ring scans must emit cells in the same (x, y, z) order the
    // per-cell walk visits them in.
    std::sort(out.begin(), out.end(),
              [](const OccupiedCell &a, const OccupiedCell &b) {
                  return cellLess(a.cell, b.cell);
              });
}

} // namespace

const std::vector<OccupiedCell> &
VoxelGrid::occupiedCells() const
{
    if (occ_built)
        return occ;
    occ_built = true;
    buildOccupiedCells(octree, lvl, occ);
    return occ;
}

namespace
{

/** Chebyshev distance between two cells. */
inline std::int32_t
chebDist(const GridCell &a, const GridCell &b)
{
    const std::int32_t dx = std::abs(a.x - b.x);
    const std::int32_t dy = std::abs(a.y - b.y);
    const std::int32_t dz = std::abs(a.z - b.z);
    return std::max(dx, std::max(dy, dz));
}

} // namespace

/*
 * Ring serving is hybrid: small shells walk their cells (one
 * Octree-Table range lookup per cell, cheap when r is small); large
 * shells — deep levels over sparse or clustered clouds, where
 * almost every shell cell is empty — scan the occupied-cell list
 * instead, touching only cells that can contribute points. Both
 * paths produce identical points in identical (x, y, z) order, and
 * both report the full in-grid shell cell count: that is what the
 * modeled hardware's table walk costs, regardless of the host
 * shortcut (see docs/PERFORMANCE.md).
 */

std::uint32_t
VoxelGrid::ringPointCount(const GridCell &center, int ring) const
{
    const std::size_t shell = shellCellCount(center, ring);
    const std::vector<OccupiedCell> &cells = occupiedCells();
    if (shell <= cells.size() / 2) {
        std::uint32_t total = 0;
        forEachRingCell(center, ring, [&](const GridCell &c) {
            total += cellCount(c);
        });
        return total;
    }
    std::uint32_t total = 0;
    for (const OccupiedCell &c : cells) {
        if (chebDist(c.cell, center) == ring)
            total += c.last - c.first;
    }
    return total;
}

std::size_t
VoxelGrid::gatherRingPoints(const GridCell &center, int ring,
                            std::vector<PointIndex> &out) const
{
    const std::size_t shell = shellCellCount(center, ring);
    const std::vector<OccupiedCell> &cells = occupiedCells();
    if (shell <= cells.size() / 2) {
        return forEachRingCell(center, ring, [&](const GridCell &c) {
            const auto [first, last] = cellRange(c);
            for (PointIndex i = first; i < last; ++i)
                out.push_back(i);
        });
    }
    for (const OccupiedCell &c : cells) {
        if (chebDist(c.cell, center) == ring) {
            for (PointIndex i = c.first; i < c.last; ++i)
                out.push_back(i);
        }
    }
    return shell;
}

int
VoxelGrid::autoLevel(std::size_t n_points, int max_level)
{
    // Aim for ~1.5 points per occupied voxel so that the 27-cell
    // ring-0/ring-1 neighborhood covers a typical K of 16-64.
    int level = 1;
    double cells = 8.0;
    while (level < max_level &&
           static_cast<double>(n_points) / cells > 1.5) {
        ++level;
        cells *= 8.0;
    }
    return level;
}

} // namespace hgpcn
