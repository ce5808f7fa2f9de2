// The Table II baseline machine, plus a human-readable description used by
// sempe_bench table2 to echo the configuration the way the paper reports it.
#pragma once

#include <string>

#include "pipeline/pipeline_config.h"

namespace sempe::sim {

/// The baseline microarchitecture model of Table II. (The PipelineConfig
/// defaults already encode it; this function exists so call sites document
/// intent and tests can assert the numbers.)
pipeline::PipelineConfig table2_machine();

/// Multi-line description mirroring Table II's rows.
std::string describe(const pipeline::PipelineConfig& cfg);

}  // namespace sempe::sim
