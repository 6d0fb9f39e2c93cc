/**
 * @file
 * Full-state bitwise equality of two octrees, shared by the suites
 * that pin one build path against another (radix vs comparison sort,
 * pooled vs fresh).
 */

#ifndef HGPCN_TESTS_OCTREE_EQUALITY_H
#define HGPCN_TESTS_OCTREE_EQUALITY_H

#include <gtest/gtest.h>

#include <cstring>

#include "octree/octree.h"

namespace hgpcn
{

/** @return true when @p a and @p b have identical bit patterns. */
inline bool
sameVec3(const Vec3 &a, const Vec3 &b)
{
    return std::memcmp(&a.x, &b.x, sizeof(float)) == 0 &&
           std::memcmp(&a.y, &b.y, sizeof(float)) == 0 &&
           std::memcmp(&a.z, &b.z, sizeof(float)) == 0;
}

/** Full-state bitwise equality of two octrees over the same frame. */
inline void
expectTreesIdentical(const Octree &a, const Octree &b)
{
    a.validate();
    b.validate();
    ASSERT_EQ(a.nodes().size(), b.nodes().size());
    ASSERT_EQ(a.pointCodes().size(), b.pointCodes().size());
    EXPECT_EQ(a.depth(), b.depth());
    EXPECT_EQ(a.leafCount(), b.leafCount());
    EXPECT_TRUE(sameVec3(a.rootBounds().lo, b.rootBounds().lo));
    EXPECT_TRUE(sameVec3(a.rootBounds().hi, b.rootBounds().hi));
    for (std::size_t i = 0; i < a.nodes().size(); ++i) {
        const OctreeNode &na = a.nodes()[i];
        const OctreeNode &nb = b.nodes()[i];
        ASSERT_EQ(na.code, nb.code) << "node " << i;
        ASSERT_EQ(na.level, nb.level) << "node " << i;
        ASSERT_EQ(na.childMask, nb.childMask) << "node " << i;
        ASSERT_EQ(na.firstChild, nb.firstChild) << "node " << i;
        ASSERT_EQ(na.parent, nb.parent) << "node " << i;
        ASSERT_EQ(na.pointBegin, nb.pointBegin) << "node " << i;
        ASSERT_EQ(na.pointEnd, nb.pointEnd) << "node " << i;
    }
    for (std::size_t i = 0; i < a.pointCodes().size(); ++i) {
        ASSERT_EQ(a.pointCodes()[i], b.pointCodes()[i]) << "point " << i;
        ASSERT_EQ(a.permutation()[i], b.permutation()[i])
            << "point " << i;
        ASSERT_EQ(a.leafOf(static_cast<PointIndex>(i)),
                  b.leafOf(static_cast<PointIndex>(i)))
            << "point " << i;
        ASSERT_TRUE(sameVec3(
            a.reorderedCloud().position(static_cast<PointIndex>(i)),
            b.reorderedCloud().position(static_cast<PointIndex>(i))))
            << "point " << i;
    }
    // The modeled paper numbers come from these counters — the
    // incremental path must charge the from-scratch workload. The
    // sort charge follows Config::useRadixSort alone.
    EXPECT_EQ(a.buildStats().get("octree.host_reads"),
              b.buildStats().get("octree.host_reads"));
    EXPECT_EQ(a.buildStats().get("octree.code_computations"),
              b.buildStats().get("octree.code_computations"));
    if (a.config().useRadixSort == b.config().useRadixSort) {
        EXPECT_EQ(a.buildStats().get("octree.sort_ops"),
                  b.buildStats().get("octree.sort_ops"));
    }
    EXPECT_EQ(a.buildStats().get("octree.host_writes"),
              b.buildStats().get("octree.host_writes"));
}

} // namespace hgpcn

#endif // HGPCN_TESTS_OCTREE_EQUALITY_H
