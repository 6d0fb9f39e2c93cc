#include "datasets/ply_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace hgpcn
{
namespace ply
{

bool
write(const std::string &path, const Frame &frame)
{
    std::ofstream out(path);
    if (!out)
        return false;
    const bool labelled =
        frame.labels.size() == frame.cloud.size();
    out << "ply\nformat ascii 1.0\n";
    out << "comment generated by hgpcn\n";
    out << "element vertex " << frame.cloud.size() << "\n";
    out << "property float x\nproperty float y\nproperty float z\n";
    if (labelled)
        out << "property int label\n";
    out << "end_header\n";
    for (std::size_t i = 0; i < frame.cloud.size(); ++i) {
        const Vec3 &p =
            frame.cloud.position(static_cast<PointIndex>(i));
        out << p.x << " " << p.y << " " << p.z;
        if (labelled)
            out << " " << frame.labels[i];
        out << "\n";
    }
    return static_cast<bool>(out);
}

namespace
{

/** Record @p what about @p path in @p error (when given). */
std::optional<Frame>
refuse(std::string *error, const std::string &what,
       const std::string &path)
{
    if (error != nullptr)
        *error = what + ": " + path;
    return std::nullopt;
}

} // namespace

std::optional<Frame>
read(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return refuse(error, "cannot open PLY file", path);

    std::string line;
    std::getline(in, line);
    if (line != "ply")
        return refuse(error, "not a PLY file", path);

    std::size_t vertex_count = 0;
    bool in_vertex_element = false;
    bool header_ended = false;
    std::vector<std::string> properties;
    while (std::getline(in, line)) {
        std::istringstream iss(line);
        std::string keyword;
        iss >> keyword;
        if (keyword == "comment")
            continue;
        if (keyword == "format") {
            std::string fmt;
            iss >> fmt;
            if (fmt != "ascii")
                return refuse(error, "only ascii PLY is supported",
                              path);
        } else if (keyword == "element") {
            std::string what;
            std::size_t count = 0;
            iss >> what >> count;
            in_vertex_element = what == "vertex";
            if (in_vertex_element) {
                vertex_count = count;
            } else if (count > 0 && properties.empty()) {
                return refuse(error, "PLY vertex element missing",
                              path);
            }
        } else if (keyword == "property" && in_vertex_element) {
            std::string type, name;
            iss >> type >> name;
            properties.push_back(name);
        } else if (keyword == "end_header") {
            header_ended = true;
            break;
        }
    }
    if (!header_ended)
        return refuse(error, "PLY header has no end_header", path);
    if (properties.size() < 3 || properties[0] != "x" ||
        properties[1] != "y" || properties[2] != "z") {
        return refuse(error, "PLY vertex must start with x/y/z floats",
                      path);
    }
    int label_column = -1;
    for (std::size_t c = 3; c < properties.size(); ++c) {
        if (properties[c] == "label")
            label_column = static_cast<int>(c);
    }

    // The header's count is untrusted: reserve no more vertices than
    // the rest of the file can hold (each value takes at least one
    // character and one separator).
    std::size_t fits = 0; // stays 0 when the header ends the file
    const std::streamoff body_begin = in.tellg();
    if (body_begin >= 0) {
        in.seekg(0, std::ios::end);
        fits = static_cast<std::size_t>(in.tellg() - body_begin) /
               (2 * properties.size());
        in.seekg(body_begin);
    }

    Frame frame;
    frame.name = path;
    frame.cloud.reserve(std::min(vertex_count, fits));
    std::vector<double> values(properties.size());
    for (std::size_t i = 0; i < vertex_count; ++i) {
        if (!std::getline(in, line)) {
            return refuse(error,
                          "PLY truncated at vertex " + std::to_string(i),
                          path);
        }
        std::istringstream iss(line);
        for (auto &v : values)
            iss >> v;
        if (!iss) {
            return refuse(error,
                          "PLY vertex " + std::to_string(i) +
                              " is malformed",
                          path);
        }
        frame.cloud.add({static_cast<float>(values[0]),
                         static_cast<float>(values[1]),
                         static_cast<float>(values[2])});
        if (label_column >= 0) {
            frame.labels.push_back(
                static_cast<int>(values[label_column]));
        }
    }
    return frame;
}

} // namespace ply
} // namespace hgpcn
