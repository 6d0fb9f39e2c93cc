/**
 * @file
 * Minimal ASCII PLY import/export.
 *
 * Lets users dump synthetic frames for inspection in standard
 * point-cloud viewers (CloudCompare, MeshLab) and load small
 * external clouds into the pipeline. Supports the vertex elements
 * this library produces: x/y/z floats plus an optional integer
 * label property.
 */

#ifndef HGPCN_DATASETS_PLY_IO_H
#define HGPCN_DATASETS_PLY_IO_H

#include <optional>
#include <string>

#include "datasets/frame.h"

namespace hgpcn
{
namespace ply
{

/**
 * Write @p frame as ASCII PLY. Labels are emitted as an int
 * "label" property when present.
 * @return true on success.
 */
bool write(const std::string &path, const Frame &frame);

/**
 * Read an ASCII PLY containing at least float x/y/z vertex
 * properties; an int/uchar "label" property is loaded when present.
 * A file that cannot be opened, is not ASCII PLY, lacks leading
 * x/y/z properties, or has a short or malformed vertex list is
 * refused, never fatal.
 * @param error When non-null, receives why a file was refused
 *   (naming the file); untouched on success.
 * @return the loaded frame (name = file path), or nullopt when the
 *   file was refused.
 */
std::optional<Frame> read(const std::string &path,
                          std::string *error = nullptr);

} // namespace ply
} // namespace hgpcn

#endif // HGPCN_DATASETS_PLY_IO_H
