#include "trace.hpp"

#include <stdexcept>

namespace campaignbench {

std::string_view layer_name(Layer layer) noexcept {
    switch (layer) {
        case Layer::Core: return "core";
        case Layer::Solver: return "solver";
        case Layer::Devices: return "devices";
        case Layer::Imaging: return "imaging";
        case Layer::Wei: return "wei";
        case Layer::Des: return "des";
        case Layer::Data: return "data";
        case Layer::Metrics: return "metrics";
        case Layer::Campaign: return "campaign";
        case Layer::Unattributed: return "unattributed";
    }
    return "?";
}

Layer layer_of(SpanKind kind) noexcept {
    switch (kind) {
        case SpanKind::Cell: return Layer::Unattributed;
        case SpanKind::RuntimeBuild: return Layer::Core;
        case SpanKind::SolverInit:
        case SpanKind::SolverAsk:
        case SpanKind::SolverTell: return Layer::Solver;
        case SpanKind::EngineRun: return Layer::Wei;
        case SpanKind::TransportExecute:
        case SpanKind::TransportWait:
        case SpanKind::SimDrain: return Layer::Des;
        case SpanKind::DeviceEstimate:
        case SpanKind::DeviceRender:
        case SpanKind::DeviceExecute: return Layer::Devices;
        case SpanKind::ImagingRead: return Layer::Imaging;
        case SpanKind::DataPublish: return Layer::Data;
        case SpanKind::MetricsCompute: return Layer::Metrics;
        case SpanKind::JournalAppend:
        case SpanKind::ReportWrite: return Layer::Campaign;
    }
    return Layer::Unattributed;
}

std::string_view span_kind_name(SpanKind kind) noexcept {
    switch (kind) {
        case SpanKind::Cell: return "cell";
        case SpanKind::RuntimeBuild: return "runtime_build";
        case SpanKind::SolverInit: return "solver_init";
        case SpanKind::SolverAsk: return "solver_ask";
        case SpanKind::SolverTell: return "solver_tell";
        case SpanKind::EngineRun: return "engine_run";
        case SpanKind::TransportExecute: return "transport_execute";
        case SpanKind::TransportWait: return "transport_wait";
        case SpanKind::SimDrain: return "sim_drain";
        case SpanKind::DeviceEstimate: return "device_estimate";
        case SpanKind::DeviceRender: return "render";
        case SpanKind::DeviceExecute: return "device_execute";
        case SpanKind::ImagingRead: return "read";
        case SpanKind::DataPublish: return "publish";
        case SpanKind::MetricsCompute: return "metrics_compute";
        case SpanKind::JournalAppend: return "journal_append";
        case SpanKind::ReportWrite: return "report_write";
    }
    return "?";
}

std::int32_t CellTrace::open(SpanKind kind) {
    Span span;
    span.kind = kind;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = now_ns();
    spans.push_back(span);
    const auto index = static_cast<std::int32_t>(spans.size() - 1);
    stack_.push_back(index);
    return index;
}

void CellTrace::close(std::int32_t index) {
    if (stack_.empty() || stack_.back() != index) {
        throw std::logic_error("CellTrace::close: span is not the innermost open span");
    }
    stack_.pop_back();
    spans[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] = spans[i].end_ns - spans[i].start_ns;
    }
    for (const Span& span : spans) {
        if (span.parent >= 0) {
            self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
        }
    }
    return self;
}

std::array<std::int64_t, kLayerCount> layer_self_ns(const std::vector<Span>& spans) {
    std::array<std::int64_t, kLayerCount> totals{};
    const std::vector<std::int64_t> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        totals[static_cast<std::size_t>(layer_of(spans[i].kind))] += self[i];
    }
    return totals;
}

}  // namespace campaignbench
