// Folds one traced cell into the JSON the benchmark's runner reads:
// cell wall time, self time per layer, the counters, and the durations
// of the spans whose medians the benchmark reports.
#pragma once

#include "support/json.hpp"
#include "trace.hpp"
#include "traced_cell.hpp"

namespace campaignbench {

[[nodiscard]] sdl::support::json::Value cell_trace_json(const CellTrace& trace,
                                                        const CellCounters& counters);

}  // namespace campaignbench
