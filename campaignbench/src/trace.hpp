// Span recording for the campaign benchmark's traced runs.
//
// A span is one call into a layer's public function, timed by the
// benchmark around that call: its kind, start, end, and the span that
// was open when it began (its parent). Spans of one campaign cell share
// the cell's CellTrace (the cell index is the span ID) and stay in
// memory until the run ends, when the driver folds them into per-layer
// self times: a span's duration minus the part its child spans cover.
// A cell runs on one thread from start to finish, so a CellTrace is
// never shared between threads while it records.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace campaignbench {

/// The repository's modules that traced time is attributed to, plus
/// `Unattributed` for cell time no layer span covers.
enum class Layer : std::uint8_t {
    Core,
    Solver,
    Devices,
    Imaging,
    Wei,
    Des,
    Data,
    Metrics,
    Campaign,
    Unattributed,
};
inline constexpr std::size_t kLayerCount = 10;

[[nodiscard]] std::string_view layer_name(Layer layer) noexcept;

/// What a span wraps. Each kind belongs to exactly one layer.
enum class SpanKind : std::uint8_t {
    Cell,              ///< one whole campaign cell (root; self time = unattributed)
    RuntimeBuild,      ///< core::WorkcellRuntime construction
    SolverInit,        ///< solver::make_solver
    SolverAsk,         ///< Solver::ask
    SolverTell,        ///< Solver::tell
    EngineRun,         ///< wei::WorkflowEngine::run
    TransportExecute,  ///< wei::Transport::execute (DES-backed)
    TransportWait,     ///< wei::Transport::wait
    SimDrain,          ///< des::Simulation::run_all at cell end
    DeviceEstimate,    ///< wei::Module::estimate
    DeviceRender,      ///< camera take_picture execute (frame render)
    DeviceExecute,     ///< every other wei::Module::execute
    ImagingRead,       ///< imaging::PlateReader::read / read_plate
    DataPublish,       ///< record build + data::GlobusFlowSim::publish
    MetricsCompute,    ///< metrics::compute_metrics
    JournalAppend,     ///< campaign::CheckpointJournal::append
    ReportWrite,       ///< campaign::write_campaign_outputs
};
inline constexpr std::size_t kSpanKindCount = 17;

[[nodiscard]] Layer layer_of(SpanKind kind) noexcept;
[[nodiscard]] std::string_view span_kind_name(SpanKind kind) noexcept;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span {
    SpanKind kind = SpanKind::Cell;
    std::int32_t parent = -1;  ///< index into the same CellTrace; -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// All spans of one cell, in open order.
class CellTrace {
public:
    std::size_t cell = 0;  ///< the span ID every span of this cell shares
    std::vector<Span> spans;

    /// Opens a span under the innermost open one; returns its index.
    std::int32_t open(SpanKind kind);
    /// Closes span `index`, which must be the innermost open span.
    void close(std::int32_t index);

private:
    std::vector<std::int32_t> stack_;
};

/// RAII span: open on construction, close on destruction (also when the
/// wrapped call throws).
class Scope {
public:
    Scope(CellTrace& trace, SpanKind kind) : trace_(trace), index_(trace.open(kind)) {}
    ~Scope() { trace_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    CellTrace& trace_;
    std::int32_t index_;
};

/// Self time of every span: duration minus the summed durations of its
/// direct children (children nest strictly inside their parent).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time per layer over a whole trace. A root Cell span's self time
/// lands in Layer::Unattributed.
[[nodiscard]] std::array<std::int64_t, kLayerCount> layer_self_ns(
    const std::vector<Span>& spans);

}  // namespace campaignbench
