// The traced closed loop: one campaign cell, run step for step as
// core::ColorPickerApp::run runs it, with a span around every call into
// a layer (runtime build, solver ask/tell, engine runs, transport
// executes, device actions, plate reads, publications, metrics).
//
// The loop drives its own wei::WorkflowEngine over a SimTransport whose
// module registry wraps the runtime's devices, so device and DES time
// can be told apart without touching the library; the devices, DES
// clock, fault injector and data plane are the runtime's own. The
// outcome must equal ColorPickerApp::run's for the same config — the
// benchmark checks it.
#pragma once

#include <cstdint>

#include "core/experiment_config.hpp"
#include "trace.hpp"

namespace campaignbench {

/// Counts taken at the layer boundaries of one traced cell.
struct CellCounters {
    std::int64_t batches = 0;
    std::int64_t samples = 0;
    std::int64_t frames = 0;      ///< camera take_picture executions
    std::int64_t retakes = 0;     ///< frames wasted on unusable reads
    std::int64_t roi_hits = 0;    ///< reads served by the marker-ROI fast path
    std::int64_t reads = 0;
    std::int64_t commands = 0;    ///< engine commands issued (incl. rejected)
    std::int64_t rejected = 0;    ///< rejected command attempts
    std::int64_t des_events = 0;  ///< DES events processed
    std::int64_t first_render_ns = -1;
    std::int64_t first_read_ns = -1;
};

/// Runs one experiment to completion under `trace` (which must have no
/// open span). The whole cell is one SpanKind::Cell span.
[[nodiscard]] sdl::core::ExperimentOutcome run_traced_cell(
    const sdl::core::ColorPickerConfig& config, CellTrace& trace, CellCounters& counters);

}  // namespace campaignbench
