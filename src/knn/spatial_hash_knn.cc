#include "knn/spatial_hash_knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/frame_workspace.h"
#include "knn/top_k.h"

namespace hgpcn
{

namespace
{

/**
 * Shrink factor applied to the ring lower bound before comparing it
 * to a float-computed squared distance. distSq() carries a few ULP
 * of rounding; the slack keeps the bound conservative (scan one ring
 * more rather than miss a boundary neighbor), preserving exactness.
 */
constexpr double kBoundSlack = 1.0 - 1e-4;

} // namespace

SpatialHashKnn::SpatialHashKnn(std::span<const Vec3> positions,
                               FrameWorkspace *ws)
    : SpatialHashKnn(positions, Config(), ws)
{
}

SpatialHashKnn::SpatialHashKnn(std::span<const Vec3> positions,
                               const Config &config, FrameWorkspace *ws)
    : pts(positions), cfg(config), workspace(ws)
{
    HGPCN_ASSERT(!pts.empty(), "empty cloud");
    const std::size_t n = pts.size();

    cell_start = &own_start;
    order = &own_order;
    cell_of = &own_cell_of;
    scored_buf = &own_scored;
    if (workspace != nullptr) {
        cell_start = &workspace->knn.cellStart;
        order = &workspace->knn.order;
        cell_of = &workspace->knn.pointCell;
        scored_buf = &workspace->knn.scored;
    }

    if (n <= cfg.bruteThreshold)
        return; // query loop scans all points

    // --- Grid geometry: cubic cells sized for ~targetOccupancy
    // points per cell, per-axis counts following the bounds.
    Vec3 lo = pts[0];
    Vec3 hi = pts[0];
    for (const Vec3 &p : pts) {
        lo.x = std::min(lo.x, p.x);
        lo.y = std::min(lo.y, p.y);
        lo.z = std::min(lo.z, p.z);
        hi.x = std::max(hi.x, p.x);
        hi.y = std::max(hi.y, p.y);
        hi.z = std::max(hi.z, p.z);
    }
    const Vec3 extent = hi - lo;
    const float max_extent =
        std::max(extent.x, std::max(extent.y, extent.z));
    if (!(max_extent > 0.0f))
        return; // all points coincide: one implicit cell, scan all

    const double want_cells =
        static_cast<double>(n) / std::max(cfg.targetOccupancy, 1e-6);
    std::int32_t axis_cells =
        static_cast<std::int32_t>(std::lround(std::cbrt(want_cells)));
    axis_cells = std::clamp(axis_cells, std::int32_t{1},
                            cfg.maxCellsPerAxis);
    origin = lo;
    cell = max_extent / static_cast<float>(axis_cells);

    const auto cells_for = [&](float e) {
        const std::int32_t c = static_cast<std::int32_t>(
            std::floor(e / cell)) + 1;
        return std::clamp(c, std::int32_t{1}, axis_cells + 1);
    };
    nx = cells_for(extent.x);
    ny = cells_for(extent.y);
    nz = cells_for(extent.z);

    // --- Counting sort into CSR buckets.
    const std::size_t cells = static_cast<std::size_t>(nx) * ny * nz;
    if (workspace != nullptr) {
        workspace->ensure(*cell_start, cells + 1);
        workspace->ensure(*order, n);
        workspace->ensure(*cell_of, n);
    }
    cell_start->assign(cells + 1, 0);
    order->resize(n);
    cell_of->resize(n);

    std::vector<std::uint32_t> &cs = *cell_start;
    for (std::size_t i = 0; i < n; ++i) {
        const CellCoord c = cellOf(pts[i]);
        const std::uint32_t id = static_cast<std::uint32_t>(
            cellId(c.x, c.y, c.z));
        (*cell_of)[i] = id;
        ++cs[id + 1];
    }
    for (std::size_t c = 0; c < cells; ++c)
        cs[c + 1] += cs[c];
    // Scatter through cs[id] (start offsets), which turns each
    // cs[id] into its bucket's end; shift right afterwards to
    // restore the starts — no cursor array, no extra allocation.
    for (std::size_t i = 0; i < n; ++i)
        (*order)[cs[(*cell_of)[i]]++] = static_cast<PointIndex>(i);
    for (std::size_t c = cells; c > 0; --c)
        cs[c] = cs[c - 1];
    cs[0] = 0;

    grid_built = true;
}

SpatialHashKnn::CellCoord
SpatialHashKnn::cellOf(const Vec3 &p) const
{
    const auto coord = [this](float v, float o, std::int32_t limit) {
        const std::int32_t c =
            static_cast<std::int32_t>(std::floor((v - o) / cell));
        return std::clamp(c, std::int32_t{0}, limit - 1);
    };
    return {coord(p.x, origin.x, nx), coord(p.y, origin.y, ny),
            coord(p.z, origin.z, nz)};
}

std::size_t
SpatialHashKnn::cellId(std::int32_t x, std::int32_t y,
                       std::int32_t z) const
{
    return (static_cast<std::size_t>(z) * ny + y) * nx + x;
}

std::size_t
SpatialHashKnn::scanRing(
    const CellCoord &center, std::int32_t r, const Vec3 &q,
    std::vector<std::pair<float, PointIndex>> &scored) const
{
    std::size_t visited = 0;
    const auto scan_cell = [&](std::int32_t x, std::int32_t y,
                               std::int32_t z) {
        const std::size_t id = cellId(x, y, z);
        const std::uint32_t first = (*cell_start)[id];
        const std::uint32_t last = (*cell_start)[id + 1];
        for (std::uint32_t s = first; s < last; ++s) {
            const PointIndex p = (*order)[s];
            scored.emplace_back(pts[p].distSq(q), p);
        }
        ++visited;
    };

    const std::int32_t x0 = std::max(center.x - r, 0);
    const std::int32_t x1 = std::min(center.x + r, nx - 1);
    const std::int32_t y0 = std::max(center.y - r, 0);
    const std::int32_t y1 = std::min(center.y + r, ny - 1);
    const std::int32_t z0 = std::max(center.z - r, 0);
    const std::int32_t z1 = std::min(center.z + r, nz - 1);
    if (r == 0) {
        scan_cell(center.x, center.y, center.z);
        return visited;
    }
    for (std::int32_t z = z0; z <= z1; ++z) {
        const bool z_face =
            z == center.z - r || z == center.z + r;
        for (std::int32_t y = y0; y <= y1; ++y) {
            const bool y_face =
                y == center.y - r || y == center.y + r;
            if (z_face || y_face) {
                for (std::int32_t x = x0; x <= x1; ++x)
                    scan_cell(x, y, z);
            } else {
                // interior row: only the two x faces are on-shell
                if (center.x - r >= 0)
                    scan_cell(center.x - r, y, z);
                if (center.x + r <= nx - 1)
                    scan_cell(center.x + r, y, z);
            }
        }
    }
    return visited;
}

GatherResult
SpatialHashKnn::gatherAt(std::span<const Vec3> queries, std::size_t k,
                         Accounting acc) const
{
    const std::size_t n = pts.size();
    HGPCN_ASSERT(k >= 1, "k=", k);
    const std::size_t k_eff = std::min(k, n);

    GatherResult result;
    result.k = k_eff;
    result.neighbors.reserve(queries.size() * k_eff);

    std::uint64_t dist_computes = 0;
    std::uint64_t sort_candidates = 0;
    std::uint64_t cells_visited = 0;

    std::vector<std::pair<float, PointIndex>> &scored = *scored_buf;
    if (workspace != nullptr)
        workspace->ensure(scored, n);

    for (const Vec3 &q : queries) {
        scored.clear();
        if (!grid_built) {
            for (std::size_t i = 0; i < n; ++i) {
                scored.emplace_back(
                    pts[i].distSq(q), static_cast<PointIndex>(i));
            }
        } else {
            const CellCoord c0 = cellOf(q);
            // Rings needed to cover the whole grid from c0.
            const std::int32_t max_ring = std::max(
                {c0.x, nx - 1 - c0.x, c0.y, ny - 1 - c0.y, c0.z,
                 nz - 1 - c0.z});
            double kth = std::numeric_limits<double>::infinity();
            for (std::int32_t r = 0; r <= max_ring; ++r) {
                const std::size_t before = scored.size();
                cells_visited += scanRing(c0, r, q, scored);
                if (scored.size() >= k_eff) {
                    if (scored.size() != before) {
                        kth = static_cast<double>(
                            kthSmallest(scored, k_eff).first);
                    }
                    // Min distance of any unscanned (ring r+1)
                    // point is r*cell; stop once that provably
                    // exceeds the k-th best (slack: see above).
                    const double bound =
                        static_cast<double>(r) *
                        static_cast<double>(cell);
                    if (bound * bound * kBoundSlack > kth)
                        break;
                }
            }
        }
        dist_computes += scored.size();
        sort_candidates += scored.size();
        selectTopK(scored, k_eff);
        for (std::size_t j = 0; j < k_eff; ++j)
            result.neighbors.push_back(scored[j].second);
    }

    if (acc == Accounting::ModeledBrute) {
        // The modeled device's kernel is a data-independent full
        // scan per query: report its workload, not the index's, so
        // every cycle model sees an unchanged trace.
        result.stats.set("gather.distance_computations",
                         queries.size() * n);
        result.stats.set("gather.sort_candidates",
                         queries.size() * n);
    } else {
        result.stats.set("gather.distance_computations",
                         dist_computes);
        result.stats.set("gather.sort_candidates", sort_candidates);
        result.stats.set("gather.cells_visited", cells_visited);
    }
    return result;
}

GatherResult
SpatialHashKnn::gather(std::span<const PointIndex> centrals,
                       std::size_t k, Accounting acc) const
{
    std::vector<Vec3> anchors;
    std::vector<Vec3> *buf = &anchors;
    if (workspace != nullptr)
        buf = &workspace->positions(centrals.size());
    else
        anchors.resize(centrals.size());
    for (std::size_t i = 0; i < centrals.size(); ++i)
        (*buf)[i] = pts[centrals[i]];
    return gatherAt(*buf, k, acc);
}

} // namespace hgpcn
