// campaignbench_driver — runs one instance of a campaign-benchmark
// workload and reports what it measured as one JSON line on stdout.
//
//   campaignbench_driver tag
//       the build configuration tag (compiler, build type, native arch)
//   campaignbench_driver run --spec <campaign.yaml> --out <dir>
//                            [--fleet-workers <n>] [--traced]
//       one campaign: in-process through campaign::CampaignRunner (the
//       cells journal to <dir>/cells.jsonl, as `sdlbench_run --campaign`
//       does), or across <n> fleet worker processes through
//       campaign::run_fleet (workers are re-exec'd copies of this
//       binary). --traced runs every cell through the traced closed loop
//       instead and adds the per-cell span summaries.
//   campaignbench_driver probe --spec <campaign.yaml>
//       times core::generated_difficulty for each generated seed, cold
//
// Host times are steady_clock (CLOCK_MONOTONIC) nanoseconds, so the
// caller can measure from its own launch time. Log output goes to stderr
// at a fixed level (warn).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/cost_model.hpp"
#include "campaign/fleet.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/scenario_gen.hpp"
#include "fleet_side.hpp"
#include "summary.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"
#include "traced_cell.hpp"

using namespace sdl;
namespace fs = std::filesystem;
namespace json = sdl::support::json;
using campaignbench::now_ns;

namespace {

constexpr const char* kTraceWorkerEnv = "CAMPAIGNBENCH_TRACE_WORKER";

struct Args {
    std::string mode;
    std::string spec;
    std::string out;
    std::size_t fleet_workers = 0;
    bool traced = false;
};

Args parse_args(int argc, char** argv) {
    Args args;
    if (argc < 2) throw std::runtime_error("missing mode (tag | run | probe)");
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
            return argv[++i];
        };
        if (flag == "--spec") {
            args.spec = value();
        } else if (flag == "--out") {
            args.out = value();
        } else if (flag == "--fleet-workers") {
            args.fleet_workers = std::stoul(value());
        } else if (flag == "--traced") {
            args.traced = true;
        } else {
            throw std::runtime_error("unknown flag " + flag);
        }
    }
    return args;
}

std::string self_exe() { return fs::read_symlink("/proc/self/exe").string(); }

json::Value cell_entry(const campaign::CellResult& result) {
    json::Value cell = json::Value::object();
    cell.set("index", result.cell.index);
    cell.set("wall_s", result.wall_seconds);
    cell.set("samples", result.outcome.samples.size());
    return cell;
}

std::int64_t start_ns(std::int64_t done_ns, double wall_seconds) {
    return done_ns - static_cast<std::int64_t>(wall_seconds * 1e9);
}

/// Untraced in-process campaign, as `sdlbench_run --campaign` runs it.
json::Value run_inprocess(const Args& args) {
    const campaign::CampaignSpec spec = campaign::campaign_from_file(args.spec);
    fs::create_directories(args.out);
    campaign::CheckpointJournal journal(args.out, spec, campaign::cell_count(spec));
    std::int64_t first_start_ns = std::numeric_limits<std::int64_t>::max();
    json::Value cells = json::Value::array();

    campaign::CampaignRunnerOptions options;
    options.on_cell_done = [&](const campaign::CellResult& result, std::size_t, std::size_t) {
        first_start_ns = std::min(first_start_ns, start_ns(now_ns(), result.wall_seconds));
        journal.append(result);
        cells.push_back(cell_entry(result));
    };
    const std::vector<campaign::CellResult> results =
        campaign::CampaignRunner(options).run(spec);
    campaign::write_campaign_outputs(args.out, spec, results);

    json::Value doc = json::Value::object();
    doc.set("end_ns", now_ns());
    doc.set("first_start_ns", first_start_ns);
    doc.set("cells", std::move(cells));
    doc.set("report_writes", 1);
    doc.set("threads", support::global_pool().size());
    return doc;
}

/// Traced in-process campaign: the runner's schedule (LPT order on the
/// same pool, one serialized completion hook) with traced cells.
json::Value run_inprocess_traced(const Args& args) {
    const campaign::CampaignSpec spec = campaign::campaign_from_file(args.spec);
    const std::vector<campaign::CampaignCell> grid = campaign::expand_grid(spec);
    const std::vector<std::size_t> order = campaign::schedule_order(grid);
    fs::create_directories(args.out);
    campaign::CheckpointJournal journal(args.out, spec, grid.size());
    std::vector<campaignbench::CellTrace> traces(grid.size());
    std::vector<campaignbench::CellCounters> counters(grid.size());
    std::mutex done_mutex;
    std::int64_t first_start_ns = std::numeric_limits<std::int64_t>::max();
    json::Value cells = json::Value::array();

    support::ThreadPool& pool = support::global_pool();
    std::vector<campaign::CellResult> mapped = pool.parallel_map(grid.size(), [&](std::size_t k) {
        const std::size_t i = order[k];
        campaignbench::CellTrace& trace = traces[i];
        trace.cell = i;
        campaign::CellResult result;
        result.cell = grid[i];
        const std::int64_t started = now_ns();
        result.outcome = campaignbench::run_traced_cell(result.cell.config, trace, counters[i]);
        const std::int64_t done = now_ns();
        result.wall_seconds = static_cast<double>(done - started) / 1e9;
        const std::lock_guard<std::mutex> lock(done_mutex);
        first_start_ns = std::min(first_start_ns, started);
        {
            const campaignbench::Scope span(trace, campaignbench::SpanKind::JournalAppend);
            journal.append(result);
        }
        cells.push_back(cell_entry(result));
        return result;
    });
    std::vector<campaign::CellResult> results(grid.size());
    for (std::size_t k = 0; k < grid.size(); ++k) results[order[k]] = std::move(mapped[k]);

    const std::int64_t write_start = now_ns();
    campaign::write_campaign_outputs(args.out, spec, results);
    const std::int64_t end = now_ns();

    json::Value trace_cells = json::Value::array();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        trace_cells.push_back(campaignbench::cell_trace_json(traces[i], counters[i]));
    }
    json::Value report_ms = json::Value::array();
    report_ms.push_back(static_cast<double>(end - write_start) / 1e6);
    json::Value trace = json::Value::object();
    trace.set("cells", std::move(trace_cells));
    trace.set("report_write_ms", std::move(report_ms));

    json::Value doc = json::Value::object();
    doc.set("end_ns", end);
    doc.set("first_start_ns", first_start_ns);
    doc.set("cells", std::move(cells));
    doc.set("report_writes", 1);
    doc.set("threads", pool.size());
    doc.set("trace", std::move(trace));
    return doc;
}

/// The earliest cell start over the worker journals the watch saw
/// appended: each record's append time minus its journaled wall time.
std::int64_t first_fleet_start_ns(const campaignbench::ReportWatch& watch) {
    std::int64_t first = std::numeric_limits<std::int64_t>::max();
    for (const auto& [path, times] : watch.appends) {
        std::ifstream in(path);
        std::string line;
        std::getline(in, line);  // header
        for (const std::int64_t appended : times) {
            if (!std::getline(in, line)) break;
            first = std::min(first,
                             start_ns(appended, json::parse(line).at("wall_seconds").as_double()));
        }
    }
    if (first == std::numeric_limits<std::int64_t>::max()) {
        throw std::runtime_error("fleet run left no journal append to observe");
    }
    return first;
}

json::Value run_fleet_campaign(const Args& args) {
    fs::create_directories(args.out);
    campaign::FleetOptions options;
    options.workers = args.fleet_workers;
    options.worker_threads = 1;
    options.worker_exe = self_exe();
    options.log_progress = false;
    if (args.traced) {
        ::setenv(kTraceWorkerEnv, "1", 1);
    } else {
        ::unsetenv(kTraceWorkerEnv);
    }

    campaignbench::ReportWatch watch(args.out);
    const campaign::FleetResult fleet = campaign::run_fleet(args.spec, args.out, options);
    watch.stop();
    if (watch.last_report_ns < 0) {
        throw std::runtime_error("fleet run left no report write to observe");
    }

    json::Value cells = json::Value::array();
    for (const campaign::CellResult& result : fleet.results) cells.push_back(cell_entry(result));
    json::Value summary = json::Value::object();
    summary.set("efficiency", fleet.summary.efficiency);
    summary.set("workers_lost", fleet.summary.workers_lost);
    summary.set("cells_released", fleet.summary.cells_releases);

    json::Value doc = json::Value::object();
    doc.set("end_ns", watch.last_report_ns);
    doc.set("first_start_ns", first_fleet_start_ns(watch));
    doc.set("cells", std::move(cells));
    doc.set("report_writes", watch.report_writes);
    doc.set("threads", fleet.summary.workers_started * options.worker_threads);
    doc.set("fleet", std::move(summary));

    if (args.traced) {
        json::Value trace_cells = json::Value::array();
        for (const auto& entry : fs::directory_iterator(args.out + "/workers")) {
            // A worker that died wrote no trace; run.py checks that the
            // traced cells cover the grid exactly once.
            const fs::path file = entry.path() / "trace.json";
            if (!fs::exists(file)) continue;
            std::ifstream in(file);
            const std::string text((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
            const json::Value worker_doc = json::parse(text);
            for (const json::Value& cell : worker_doc.at("cells").as_array()) {
                trace_cells.push_back(cell);
            }
        }
        // The coordinator rewrites campaign.json after every completed
        // cell; replay those writes (difficulty scores already cached in
        // this process, as they are in the coordinator) to time them.
        const campaign::CampaignSpec spec = campaign::campaign_from_file(args.spec);
        json::Value report_ms = json::Value::array();
        const std::string replay = args.out + "/replay";
        for (std::size_t n = 1; n <= fleet.results.size(); ++n) {
            const std::int64_t t0 = now_ns();
            campaign::write_campaign_outputs(
                replay, spec,
                std::span<const campaign::CellResult>(fleet.results.data(), n));
            report_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        }
        fs::remove_all(replay);
        json::Value trace = json::Value::object();
        trace.set("cells", std::move(trace_cells));
        trace.set("report_write_ms", std::move(report_ms));
        doc.set("trace", std::move(trace));
    }
    return doc;
}

json::Value run_probe(const Args& args) {
    const campaign::CampaignSpec spec = campaign::campaign_from_file(args.spec);
    std::set<std::uint64_t> seen;
    json::Value probe_ms = json::Value::array();
    for (const campaign::CampaignCell& cell : campaign::expand_grid(spec)) {
        if (!cell.generated_seed || !seen.insert(*cell.generated_seed).second) continue;
        const std::int64_t t0 = now_ns();
        (void)core::generated_difficulty(*cell.generated_seed);
        probe_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    json::Value doc = json::Value::object();
    doc.set("probe_ms", std::move(probe_ms));
    return doc;
}

json::Value config_tag() {
    json::Value tag = json::Value::object();
    tag.set("compiler", CAMPAIGNBENCH_COMPILER);
    tag.set("build_type", CAMPAIGNBENCH_BUILD_TYPE);
    tag.set("native_arch", CAMPAIGNBENCH_NATIVE_ARCH);
    tag.set("log_level", "warn");
    return tag;
}

int worker_main(int argc, char** argv) {
    campaign::FleetWorkerOptions options;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--campaign") {
            options.campaign_path = value;
        } else if (flag == "--dir") {
            options.dir = value;
        } else if (flag == "--expect-digest") {
            options.expect_digest = value;
        } else if (flag == "--backend") {
            options.backend = value;
        } else if (flag == "--heartbeat-interval") {
            options.heartbeat_interval_s = std::stod(value);
        } else {
            std::fprintf(stderr, "fleet worker: unknown flag '%s'\n", flag.c_str());
            return 2;
        }
    }
    const char* traced = std::getenv(kTraceWorkerEnv);
    if (traced != nullptr && std::string(traced) == "1") {
        return campaignbench::run_traced_fleet_worker(options);
    }
    return campaign::run_fleet_worker(options);
}

}  // namespace

int main(int argc, char** argv) {
    support::set_log_level(support::LogLevel::Warn);
    try {
        if (argc >= 2 && std::string(argv[1]) == "--worker") return worker_main(argc, argv);
        const Args args = parse_args(argc, argv);
        json::Value doc;
        if (args.mode == "tag") {
            doc = config_tag();
        } else if (args.mode == "run" && args.fleet_workers > 0) {
            doc = run_fleet_campaign(args);
        } else if (args.mode == "run") {
            doc = args.traced ? run_inprocess_traced(args) : run_inprocess(args);
        } else if (args.mode == "probe") {
            doc = run_probe(args);
        } else {
            throw std::runtime_error("unknown mode " + args.mode);
        }
        std::printf("%s\n", doc.dump().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "campaignbench_driver: %s\n", e.what());
        return 1;
    }
}
