// sdlbench_merge — fuses sharded campaign journals into one report.
//
//   sdlbench_merge <campaign.yaml> <out_dir> <shard_dir_or_journal>...
//
// Each shard argument is either a shard's output directory (its
// cells.jsonl is used) or a journal file path. Every journal is validated
// against the campaign file — spec digest, per-cell config digests,
// shard membership — and the merge rejects overlapping cells (two
// journals claiming one index) and incomplete coverage loudly. The
// merged campaign.json / campaign.csv written to <out_dir> are
// byte-identical to a single uninterrupted `sdlbench_run --campaign`
// over the same file, and <out_dir>/cells.jsonl is rewritten as one
// whole-grid journal, so the merged directory is itself resumable.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/report.hpp"

using namespace sdl;

namespace {

void print_usage(std::FILE* stream) {
    std::fprintf(
        stream,
        "sdlbench_merge — fuse sharded campaign journals into one report\n"
        "\n"
        "usage: sdlbench_merge <campaign.yaml> <out_dir> <shard_dir_or_journal>...\n"
        "\n"
        "Validates every shard journal against the campaign file (spec digest,\n"
        "per-cell config digests), rejects overlaps and missing cells, and\n"
        "writes campaign.json + campaign.csv + a fused cells.jsonl to <out_dir>\n"
        "— byte-identical to a single uninterrupted run of the same campaign.\n"
        "Shards are produced with: sdlbench_run --campaign <file> --shard i/N <dir>\n");
}

std::string to_journal_path(const std::string& arg) {
    return std::filesystem::is_directory(arg) ? campaign::journal_path(arg) : arg;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string& a : args) {
        if (a == "-h" || a == "--help") {
            print_usage(stdout);
            return 0;
        }
    }
    if (args.size() < 3) {
        print_usage(stderr);
        return 2;
    }

    const std::string& spec_path = args[0];
    const std::string& out_dir = args[1];
    std::vector<std::string> journals;
    for (std::size_t i = 2; i < args.size(); ++i) {
        journals.push_back(to_journal_path(args[i]));
    }

    try {
        const campaign::CampaignSpec spec = campaign::campaign_from_file(spec_path);
        const std::vector<campaign::CellResult> results =
            campaign::merge_journals(journals, spec);
        std::printf("Merged %zu journals: %zu cells of campaign '%s'\n", journals.size(),
                    results.size(), spec.name.c_str());

        campaign::write_campaign_outputs(out_dir, spec, results);
        campaign::write_fused_journal(out_dir, spec, results.size(), results);
        std::printf("Wrote %s/{campaign.json, campaign.csv, cells.jsonl}.\n",
                    out_dir.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
