// Container-side half of the pipeline report: decodes a record container
// frame by frame and fills the `container` section of an
// obs::PipelineReport, so the byte totals the live encoder claimed can be
// reconciled against what actually landed on disk. Lives in the tool
// layer because chunk decoding needs the codec headers; the report struct
// itself stays dependency-free in src/obs/.
#pragma once

#include <string>

#include "obs/report.h"

namespace cdc::tool {

/// Decodes the container at `path` and fills `report`'s container
/// section: file size, frame count, stored (tool-frame) bytes, raw
/// (decompressed chunk) bytes, per-codec frame counts, and — for CDC
/// chunks — the matched-event and stored-value accounting. Returns false
/// and sets *error when the file cannot be opened; damaged frames are
/// skipped (the salvage scan semantics of ContainerReader).
bool fill_container_section(const std::string& path,
                            obs::PipelineReport& report,
                            std::string* error = nullptr);

}  // namespace cdc::tool
