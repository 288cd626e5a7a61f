#include "summary.hpp"

#include <array>

namespace campaignbench {

namespace json = sdl::support::json;

namespace {

/// Span kinds whose individual durations the runner takes medians of.
constexpr std::array kListedKinds = {
    SpanKind::RuntimeBuild,  SpanKind::SolverAsk,      SpanKind::SolverTell,
    SpanKind::DeviceRender,  SpanKind::ImagingRead,    SpanKind::DataPublish,
    SpanKind::MetricsCompute, SpanKind::JournalAppend,
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

json::Value cell_trace_json(const CellTrace& trace, const CellCounters& counters) {
    json::Value doc = json::Value::object();
    doc.set("index", trace.cell);

    std::int64_t wall_ns = 0;
    for (const Span& span : trace.spans) {
        if (span.kind == SpanKind::Cell) wall_ns += span.end_ns - span.start_ns;
    }
    doc.set("wall_s", static_cast<double>(wall_ns) / 1e9);

    const auto self = layer_self_ns(trace.spans);
    json::Value self_s = json::Value::object();
    for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
        self_s.set(std::string(layer_name(static_cast<Layer>(layer))),
                   static_cast<double>(self[layer]) / 1e9);
    }
    doc.set("self_s", std::move(self_s));

    json::Value lists = json::Value::object();
    for (const SpanKind kind : kListedKinds) {
        json::Value values = json::Value::array();
        for (const Span& span : trace.spans) {
            if (span.kind == kind) values.push_back(ms(span.end_ns - span.start_ns));
        }
        lists.set(std::string(span_kind_name(kind)), std::move(values));
    }
    doc.set("ms", std::move(lists));

    json::Value c = json::Value::object();
    c.set("batches", counters.batches);
    c.set("samples", counters.samples);
    c.set("frames", counters.frames);
    c.set("retakes", counters.retakes);
    c.set("reads", counters.reads);
    c.set("roi_hits", counters.roi_hits);
    c.set("commands", counters.commands);
    c.set("rejected", counters.rejected);
    c.set("des_events", counters.des_events);
    doc.set("counters", std::move(c));
    doc.set("first_render_ms", ms(counters.first_render_ns));
    doc.set("first_read_ms", ms(counters.first_read_ns));
    return doc;
}

}  // namespace campaignbench
