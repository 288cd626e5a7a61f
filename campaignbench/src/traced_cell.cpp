#include "traced_cell.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/workcell_runtime.hpp"
#include "core/workflows.hpp"
#include "data/record.hpp"
#include "devices/ot2.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/well_reader.hpp"
#include "metrics/metrics.hpp"
#include "solver/factory.hpp"
#include "support/common.hpp"
#include "support/log.hpp"
#include "wei/engine.hpp"
#include "wei/sim_transport.hpp"

namespace campaignbench {

namespace {

using namespace sdl;

/// Retake attempts before an unusable frame aborts the run (as in
/// core::ColorPickerApp).
constexpr int kMaxRetakes = 3;

/// Forwards to one of the runtime's devices, timing estimate/execute.
class TracedModule final : public wei::Module {
public:
    TracedModule(wei::Module& inner, bool is_camera, CellTrace& trace,
                 CellCounters& counters)
        : inner_(inner), is_camera_(is_camera), trace_(trace), counters_(counters) {}

    [[nodiscard]] const wei::ModuleInfo& info() const noexcept override {
        return inner_.info();
    }

    [[nodiscard]] support::Duration estimate(const wei::ActionRequest& request) const override {
        const Scope span(trace_, SpanKind::DeviceEstimate);
        return inner_.estimate(request);
    }

    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override {
        if (!is_camera_ || request.action != "take_picture") {
            const Scope span(trace_, SpanKind::DeviceExecute);
            return inner_.execute(request);
        }
        const std::int64_t started = now_ns();
        wei::ActionResult result;
        {
            const Scope span(trace_, SpanKind::DeviceRender);
            result = inner_.execute(request);
        }
        if (counters_.frames++ == 0) counters_.first_render_ns = now_ns() - started;
        return result;
    }

private:
    wei::Module& inner_;
    bool is_camera_;
    CellTrace& trace_;
    CellCounters& counters_;
};

/// Times Transport::execute/wait around the DES-backed transport.
class TracedTransport final : public wei::Transport {
public:
    TracedTransport(wei::Transport& inner, CellTrace& trace) : inner_(inner), trace_(trace) {}

    [[nodiscard]] wei::ActionResult execute(const wei::ActionRequest& request) override {
        const Scope span(trace_, SpanKind::TransportExecute);
        return inner_.execute(request);
    }
    [[nodiscard]] support::TimePoint now() const override { return inner_.now(); }
    void wait(support::Duration duration) override {
        const Scope span(trace_, SpanKind::TransportWait);
        inner_.wait(duration);
    }

private:
    wei::Transport& inner_;
    CellTrace& trace_;
};

/// The loop state of core::ColorPickerApp, over the traced engine.
class TracedLoop {
public:
    TracedLoop(core::WorkcellRuntime& runtime, CellTrace& trace, CellCounters& counters)
        : runtime_(runtime),
          config_(runtime.config()),
          trace_(trace),
          counters_(counters),
          sim_transport_(runtime.sim(), modules_, &runtime.faults()),
          transport_(sim_transport_, trace),
          engine_(transport_, modules_, log_, config_.retry) {
        for (const std::string& name : runtime.registry().names()) {
            wei::Module& device = runtime.registry().get(name);
            modules_.add(std::make_shared<TracedModule>(
                device, &device == &runtime.camera(), trace, counters));
        }
        solver::SolverOptions options;
        options.dims = 4;
        options.seed = config_.seed;
        options.mixer = &runtime.ot2().mixer();
        options.target = config_.target;
        options.linalg_backend = config_.linalg_backend;
        const Scope span(trace_, SpanKind::SolverInit);
        solver_ = solver::make_solver(config_.solver, options);
    }

    core::ExperimentOutcome run();

private:
    struct BatchReadout {
        std::vector<solver::Observation> observations;
        std::int64_t frame_id = 0;
        std::size_t wells_rescued = 0;
        double grid_residual_px = 0.0;
    };

    wei::WorkflowRunStats run_workflow(const wei::Workflow& workflow) {
        const Scope span(trace_, SpanKind::EngineRun);
        wei::WorkflowRunStats stats = engine_.run(workflow);
        counters_.rejected += stats.rejections;
        return stats;
    }
    imaging::WellReadout read_frame(std::int64_t frame_id,
                                    const imaging::WellReadParams& params);
    void ensure_plate_with_room(int batch);
    BatchReadout mix_and_measure(const std::vector<std::vector<double>>& proposals,
                                 const std::vector<int>& wells);
    void publish_experiment_header();
    void publish_run(std::span<const solver::Observation> observations,
                     const std::vector<int>& wells, support::TimePoint started,
                     std::int64_t frame_id);

    core::WorkcellRuntime& runtime_;
    const core::ColorPickerConfig& config_;
    CellTrace& trace_;
    CellCounters& counters_;
    wei::ModuleRegistry modules_;
    wei::SimTransport sim_transport_;
    TracedTransport transport_;
    wei::EventLog log_;
    wei::WorkflowEngine engine_;
    std::unique_ptr<solver::Solver> solver_;
    std::optional<imaging::PlateReader> reader_;
    core::ExperimentOutcome outcome_;
    std::optional<wei::PlateId> current_plate_;
    int samples_done_ = 0;
};

void TracedLoop::ensure_plate_with_room(int batch) {
    if (current_plate_.has_value()) {
        const wei::Plate& plate = runtime_.plates().get(*current_plate_);
        if (plate.capacity() - plate.filled_count() >= batch) return;
        (void)run_workflow(core::wf_trashplate());
        current_plate_.reset();
    }
    const wei::WorkflowRunStats stats = run_workflow(core::wf_newplate());
    current_plate_ = stats.results.at(0).data.at("plate_id").as_int();
    ++outcome_.plates_used;
}

imaging::WellReadout TracedLoop::read_frame(std::int64_t frame_id,
                                            const imaging::WellReadParams& params) {
    const std::int64_t started = now_ns();
    imaging::WellReadout readout;
    {
        const Scope span(trace_, SpanKind::ImagingRead);
        const imaging::Image& frame = runtime_.camera().frame(frame_id);
        if (!config_.vision_roi_fast_path) {
            readout = imaging::read_plate(frame, params);
        } else {
            if (!reader_.has_value()) reader_.emplace(params);
            readout = reader_->read(frame);
        }
    }
    if (counters_.reads++ == 0) counters_.first_read_ns = now_ns() - started;
    if (readout.roi_fast_path) ++counters_.roi_hits;
    return readout;
}

TracedLoop::BatchReadout TracedLoop::mix_and_measure(
    const std::vector<std::vector<double>>& proposals, const std::vector<int>& wells) {
    std::vector<devices::DispenseOrder> orders;
    orders.reserve(proposals.size());
    for (std::size_t i = 0; i < proposals.size(); ++i) {
        devices::DispenseOrder order;
        order.well = wells[i];
        double sum = 0.0;
        for (const double r : proposals[i]) sum += r;
        for (std::size_t dye = 0; dye < 4; ++dye) {
            order.volumes[dye] = config_.well_volume * (proposals[i][dye] / sum);
        }
        orders.push_back(order);
    }
    if (!runtime_.ot2().can_cover(orders)) {
        (void)run_workflow(core::wf_replenish());
        ++outcome_.replenishes;
    }
    if (runtime_.ot2().needs_prime()) {
        (void)run_workflow(core::wf_reprime());
        ++outcome_.reprimes;
    }

    const wei::Workflow mix = core::wf_mixcolor().with_step_args(
        core::kMixStepName, devices::Ot2Sim::make_protocol_args(orders));
    std::int64_t frame_id = run_workflow(mix).results.back().data.at("frame_id").as_int();

    imaging::WellReadParams params;
    params.geometry = imaging::scene_for_plate(runtime_.camera().scene(), config_.plate_rows,
                                               config_.plate_cols)
                          .geometry;
    imaging::WellReadout readout = read_frame(frame_id, params);
    int retakes = 0;
    while (!readout.ok && retakes < kMaxRetakes) {
        ++retakes;
        support::log_warn("colorpicker", "unusable frame (", readout.error,
                          "); retaking photo (attempt ", retakes, ")");
        frame_id = run_workflow(core::wf_retake()).results.back().data.at("frame_id").as_int();
        readout = read_frame(frame_id, params);
    }
    if (!readout.ok) {
        throw wei::WorkflowError("vision pipeline failed after " + std::to_string(retakes) +
                                 " retakes: " + readout.error);
    }
    outcome_.frame_retakes += retakes;

    BatchReadout result;
    result.frame_id = frame_id;
    result.wells_rescued = readout.wells_rescued;
    result.grid_residual_px = readout.grid_residual_px;
    for (std::size_t i = 0; i < proposals.size(); ++i) {
        solver::Observation obs;
        obs.ratios = proposals[i];
        obs.measured = readout.colors.at(static_cast<std::size_t>(wells[i]));
        obs.score = core::evaluate_objective(config_.objective, obs.measured, config_.target);
        result.observations.push_back(std::move(obs));
    }
    return result;
}

void TracedLoop::publish_experiment_header() {
    const Scope span(trace_, SpanKind::DataPublish);
    data::ExperimentRecord record;
    record.experiment_id = config_.experiment_id;
    record.date = config_.date;
    record.solver = solver_->name();
    record.target = config_.target;
    record.batch_size = config_.batch_size;
    record.total_samples = samples_done_;
    record.run_count = outcome_.batches_run;
    runtime_.flow().publish(record.to_json());
}

void TracedLoop::publish_run(std::span<const solver::Observation> observations,
                             const std::vector<int>& wells, support::TimePoint started,
                             std::int64_t frame_id) {
    const Scope span(trace_, SpanKind::DataPublish);
    data::RunRecord record;
    record.experiment_id = config_.experiment_id;
    record.run_number = outcome_.batches_run;
    record.started = started;
    record.ended = transport_.now();
    record.image_ref = "plate_frame_" + std::to_string(frame_id) + ".ppm";
    record.best_score = outcome_.best_score;
    for (std::size_t i = 0; i < observations.size(); ++i) {
        data::SampleRecord sample;
        sample.sample_index = samples_done_ - static_cast<int>(observations.size()) +
                              static_cast<int>(i) + 1;
        sample.well = wells[i];
        sample.ratios = observations[i].ratios;
        double sum = 0.0;
        for (const double r : observations[i].ratios) sum += r;
        for (const double r : observations[i].ratios) {
            sample.volumes_ul.push_back(config_.well_volume.to_microliters() * r / sum);
        }
        sample.measured = observations[i].measured;
        sample.score = observations[i].score;
        sample.best_score_so_far =
            outcome_.samples[static_cast<std::size_t>(sample.sample_index - 1)].best_so_far;
        sample.measured_at = record.ended;
        record.samples.push_back(std::move(sample));
    }
    runtime_.flow().publish(record.to_json());
}

core::ExperimentOutcome TracedLoop::run() {
    outcome_.experiment_id = config_.experiment_id;
    outcome_.best_score = 1e300;
    double residual_sum = 0.0;
    std::size_t residual_count = 0;

    while (samples_done_ < config_.total_samples) {
        if (config_.stop_threshold > 0.0 && outcome_.best_score <= config_.stop_threshold) {
            outcome_.reached_threshold = true;
            break;
        }
        const int batch = std::min(config_.batch_size, config_.total_samples - samples_done_);
        ensure_plate_with_room(batch);

        wei::Plate& plate = runtime_.plates().get(*current_plate_);
        std::vector<int> wells;
        int well_cursor = plate.next_free_well().value_or(0);
        for (int i = 0; i < batch; ++i) {
            while (plate.is_filled(well_cursor)) ++well_cursor;
            wells.push_back(well_cursor);
            ++well_cursor;
        }

        const support::TimePoint batch_start = transport_.now();
        std::vector<std::vector<double>> proposals;
        {
            const Scope span(trace_, SpanKind::SolverAsk);
            proposals = solver_->ask(static_cast<std::size_t>(batch));
        }
        BatchReadout readout = mix_and_measure(proposals, wells);

        for (const solver::Observation& obs : readout.observations) {
            ++samples_done_;
            if (obs.score < outcome_.best_score) {
                outcome_.best_score = obs.score;
                outcome_.best_ratios = obs.ratios;
                outcome_.best_color = obs.measured;
            }
            core::SamplePoint point;
            point.index = samples_done_;
            point.elapsed_minutes = transport_.now().to_minutes();
            point.score = obs.score;
            point.best_so_far = outcome_.best_score;
            point.ratios = obs.ratios;
            point.measured = obs.measured;
            outcome_.samples.push_back(std::move(point));
        }
        outcome_.wells_rescued_total += readout.wells_rescued;
        residual_sum += readout.grid_residual_px;
        ++residual_count;
        ++outcome_.batches_run;

        if (config_.publish) {
            if (outcome_.batches_run == 1) publish_experiment_header();
            publish_run(readout.observations, wells, batch_start, readout.frame_id);
        }
        {
            const Scope span(trace_, SpanKind::SolverTell);
            solver_->tell(readout.observations);
        }
        support::log_info("colorpicker", "batch ", outcome_.batches_run, " done: best=",
                          outcome_.best_score, " after ", samples_done_, " samples");
    }

    {
        const Scope span(trace_, SpanKind::MetricsCompute);
        outcome_.metrics = metrics::compute_metrics(log_, samples_done_,
                                                    runtime_.flow().completion_times(),
                                                    config_.metrics);
    }
    outcome_.mean_grid_residual_px =
        residual_count > 0 ? residual_sum / static_cast<double>(residual_count) : 0.0;

    if (current_plate_.has_value()) {
        (void)run_workflow(core::wf_trashplate());
        current_plate_.reset();
    }
    if (config_.publish && outcome_.batches_run > 0) publish_experiment_header();
    {
        const Scope span(trace_, SpanKind::SimDrain);
        runtime_.sim().run_all();
    }

    counters_.batches = outcome_.batches_run;
    counters_.samples = samples_done_;
    counters_.retakes = outcome_.frame_retakes;
    counters_.commands = static_cast<std::int64_t>(engine_.commands_issued());
    counters_.des_events = static_cast<std::int64_t>(runtime_.sim().processed());
    return outcome_;
}

}  // namespace

sdl::core::ExperimentOutcome run_traced_cell(const sdl::core::ColorPickerConfig& config,
                                             CellTrace& trace, CellCounters& counters) {
    const Scope cell(trace, SpanKind::Cell);
    std::optional<sdl::core::WorkcellRuntime> runtime;
    {
        const Scope span(trace, SpanKind::RuntimeBuild);
        runtime.emplace(config);
    }
    runtime->claim();
    TracedLoop loop(*runtime, trace, counters);
    return loop.run();
}

}  // namespace campaignbench
