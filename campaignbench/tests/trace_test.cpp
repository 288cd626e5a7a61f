// Self-time accounting on hand-built span trees. Exits 0 when every
// check holds; prints each failure and exits 1 otherwise.
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "trace.hpp"

using namespace campaignbench;

namespace {

int failures = 0;

void expect_eq(long long got, long long want, const char* what) {
    if (got != want) {
        std::printf("FAIL %s: got %lld, want %lld\n", what, got, want);
        ++failures;
    }
}

Span span(SpanKind kind, int parent, long long start, long long end) {
    return Span{kind, parent, start, end};
}

}  // namespace

int main() {
    // cell [0,100]
    //   runtime_build [0,10]
    //   engine_run [10,60]
    //     transport_execute [12,58]
    //       device_render [20,50]
    //     transport_execute [58,59]   (no children: all DES)
    //   read [60,90]
    // journal_append [100,104]        (a second root, outside the cell)
    const std::vector<Span> tree = {
        span(SpanKind::Cell, -1, 0, 100),
        span(SpanKind::RuntimeBuild, 0, 0, 10),
        span(SpanKind::EngineRun, 0, 10, 60),
        span(SpanKind::TransportExecute, 2, 12, 58),
        span(SpanKind::DeviceRender, 3, 20, 50),
        span(SpanKind::TransportExecute, 2, 58, 59),
        span(SpanKind::ImagingRead, 0, 60, 90),
        span(SpanKind::JournalAppend, -1, 100, 104),
    };
    const std::vector<std::int64_t> self = self_times_ns(tree);
    expect_eq(self[0], 100 - 10 - 50 - 30, "cell self = unattributed");
    expect_eq(self[2], 50 - 46 - 1, "engine self");
    expect_eq(self[3], 46 - 30, "transport self");
    expect_eq(self[4], 30, "leaf self = duration");
    expect_eq(self[7], 4, "second root");

    const auto layers = layer_self_ns(tree);
    const auto at = [&](Layer layer) { return layers[static_cast<std::size_t>(layer)]; };
    expect_eq(at(Layer::Unattributed), 10, "unattributed layer");
    expect_eq(at(Layer::Core), 10, "core layer");
    expect_eq(at(Layer::Wei), 3, "wei layer");
    expect_eq(at(Layer::Des), 16 + 1, "des layer sums both executes");
    expect_eq(at(Layer::Devices), 30, "devices layer");
    expect_eq(at(Layer::Imaging), 30, "imaging layer");
    expect_eq(at(Layer::Campaign), 4, "campaign layer");
    long long total = 0;
    for (const std::int64_t ns : layers) total += ns;
    expect_eq(total, 104, "layer self times sum to the root durations");

    // Recorded spans nest and close in order; closing out of order throws.
    CellTrace trace;
    const auto outer = trace.open(SpanKind::Cell);
    const auto inner = trace.open(SpanKind::SolverAsk);
    expect_eq(trace.spans[static_cast<std::size_t>(inner)].parent, outer, "recorded parent");
    bool threw = false;
    try {
        trace.close(outer);
    } catch (const std::logic_error&) {
        threw = true;
    }
    expect_eq(threw ? 1 : 0, 1, "out-of-order close throws");
    trace.close(inner);
    trace.close(outer);
    const auto recorded = self_times_ns(trace.spans);
    expect_eq(recorded[0] >= 0 ? 1 : 0, 1, "recorded self time is non-negative");

    if (failures == 0) std::printf("trace_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
