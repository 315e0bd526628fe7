// jbs_cli — a small driver around the library, in the spirit of
// `hadoop jar hadoop-examples.jar`:
//
//   jbs_cli terasort  [--records N] [--nodes N] [--shuffle S] [--compress]
//   jbs_cli wordcount [--lines N]   [--nodes N] [--shuffle S] [--compress]
//   jbs_cli suite     [--lines N]   [--nodes N] [--shuffle S]
//
// where S is one of: local | http | http-jvm | jbs-tcp | jbs-rdma.
// Everything runs in-process on a MiniDFS under a temp directory; the
// point is exercising the whole stack from a shell.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>

#include "baseline/plugin.h"
#include "hdfs/minidfs.h"
#include "jbs/plugin.h"
#include "mapred/engine.h"
#include "mapred/local_shuffle.h"
#include "workloads/tarazu.h"
#include "workloads/teragen.h"

using namespace jbs;

namespace {

struct CliOptions {
  std::string command;
  uint64_t records = 50000;
  uint64_t lines = 10000;
  int nodes = 4;
  std::string shuffle = "jbs-tcp";
  bool compress = false;
};

constexpr const char* kShuffleNames[] = {"local", "http", "http-jvm",
                                         "jbs-tcp", "jbs-rdma"};

int Usage() {
  std::fprintf(
      stderr,
      "usage: jbs_cli <terasort|wordcount|suite> [--records N] [--lines N]\n"
      "               [--nodes N] [--shuffle local|http|http-jvm|jbs-tcp|"
      "jbs-rdma]\n"
      "               [--compress]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  if (argc < 2) return false;
  options->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--records") {
      const char* v = next();
      if (!v) return false;
      options->records = std::strtoull(v, nullptr, 10);
    } else if (arg == "--lines") {
      const char* v = next();
      if (!v) return false;
      options->lines = std::strtoull(v, nullptr, 10);
    } else if (arg == "--nodes") {
      const char* v = next();
      if (!v) return false;
      options->nodes = std::atoi(v);
    } else if (arg == "--shuffle") {
      const char* v = next();
      if (!v) return false;
      options->shuffle = v;
      if (std::find(std::begin(kShuffleNames), std::end(kShuffleNames),
                    options->shuffle) == std::end(kShuffleNames)) {
        std::fprintf(stderr, "unknown shuffle: %s\n", v);
        return false;
      }
    } else if (arg == "--compress") {
      options->compress = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

struct ShuffleChoice {
  std::unique_ptr<mr::ShufflePlugin> plugin;
  std::string description;
};

ShuffleChoice MakeShuffle(const std::string& name,
                          const std::filesystem::path& root) {
  ShuffleChoice choice;
  if (name == "local") {
    choice.plugin = std::make_unique<mr::LocalShufflePlugin>();
    choice.description = "in-process local shuffle";
  } else if (name == "http" || name == "http-jvm") {
    baseline::HadoopShufflePlugin::Options options;
    options.spill_dir = root / "spill";
    if (name == "http-jvm") {
      options.penalty = baseline::JvmPenalty::Calibrated(0.1);
      choice.description = "stock HTTP shuffle + scaled JVM penalty";
    } else {
      choice.description = "stock HTTP shuffle";
    }
    choice.plugin =
        std::make_unique<baseline::HadoopShufflePlugin>(options);
  } else if (name == "jbs-rdma") {
    shuffle::JbsOptions options;
    options.transport = shuffle::TransportKind::kRdma;
    choice.plugin = std::make_unique<shuffle::JbsShufflePlugin>(options);
    choice.description = "JBS over SoftRdma verbs";
  } else {
    choice.plugin = std::make_unique<shuffle::JbsShufflePlugin>();
    choice.description = "JBS over TCP (epoll)";
  }
  return choice;
}

mr::LocalJobRunner MakeRunner(hdfs::MiniDfs& dfs, mr::ShufflePlugin& plugin,
                              const std::filesystem::path& root,
                              const CliOptions& cli,
                              mr::OutputFormat format) {
  mr::LocalJobRunner::Options options;
  options.dfs = &dfs;
  options.plugin = &plugin;
  options.work_dir = root / "work";
  options.num_nodes = cli.nodes;
  options.output_format = format;
  options.sort_buffer_bytes = 1 << 20;
  options.conf.SetBool(conf::kCompressMapOutput, cli.compress);
  return mr::LocalJobRunner(options);
}

void Report(const mr::JobCounters& counters) {
  std::printf(
      "  %.3fs  maps=%llu reducers=%llu shuffled=%s spills=%llu "
      "retries=%llu\n",
      counters.total_sec, (unsigned long long)counters.map_tasks,
      (unsigned long long)counters.reduce_tasks,
      HumanBytes(counters.shuffle_bytes).c_str(),
      (unsigned long long)counters.map_spills,
      (unsigned long long)counters.task_retries);
}

int RunTerasort(hdfs::MiniDfs& dfs, mr::ShufflePlugin& plugin,
                const std::filesystem::path& root, const CliOptions& cli) {
  std::printf("teragen %llu records (%s)\n",
              (unsigned long long)cli.records,
              HumanBytes(cli.records * wl::kTeraRecordSize).c_str());
  if (!wl::TeraGen(dfs, "/tera/in", cli.records, 42).ok()) return 1;
  auto runner = MakeRunner(dfs, plugin, root, cli, mr::OutputFormat::kRaw);
  auto spec = wl::TerasortJob(dfs, "/tera/in", "/tera/out", cli.nodes * 2);
  if (!spec.ok()) return 1;
  auto result = runner.Run(*spec);
  if (!result.ok()) {
    std::fprintf(stderr, "terasort failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  Report(*result);
  auto total = wl::ValidateSorted(dfs, result->output_files);
  if (!total.ok() || *total != cli.records) {
    std::fprintf(stderr, "VALIDATION FAILED\n");
    return 1;
  }
  std::printf("  output globally sorted: %llu records OK\n",
              (unsigned long long)*total);
  return 0;
}

int RunWordCount(hdfs::MiniDfs& dfs, mr::ShufflePlugin& plugin,
                 const std::filesystem::path& root, const CliOptions& cli) {
  if (!wl::GenerateText(dfs, "/in/text", cli.lines, 10, 20000, 7).ok()) {
    return 1;
  }
  auto runner = MakeRunner(dfs, plugin, root, cli,
                           mr::OutputFormat::kKeyTabValue);
  auto result =
      runner.Run(wl::WordCountJob("/in/text", "/out/wc", cli.nodes * 2));
  if (!result.ok()) {
    std::fprintf(stderr, "wordcount failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  Report(*result);
  std::printf("  distinct words: %llu\n",
              (unsigned long long)result->reduce_output_records);
  return 0;
}

int RunSuite(hdfs::MiniDfs& dfs, mr::ShufflePlugin& plugin,
             const std::filesystem::path& root, const CliOptions& cli) {
  if (!wl::GenerateText(dfs, "/in/text", cli.lines, 12, 5000, 1).ok() ||
      !wl::GenerateEdges(dfs, "/in/edges", cli.lines, cli.lines / 10, 2)
           .ok() ||
      !wl::GenerateTuples(dfs, "/in/tuples", cli.lines, cli.lines / 20, 3)
           .ok()) {
    return 1;
  }
  auto runner = MakeRunner(dfs, plugin, root, cli,
                           mr::OutputFormat::kKeyTabValue);
  const int reducers = cli.nodes * 2;
  const std::vector<mr::JobSpec> jobs = {
      wl::SelfJoinJob("/in/tuples", "/out/sj", reducers),
      wl::InvertedIndexJob("/in/text", "/out/ii", reducers),
      wl::SequenceCountJob("/in/text", "/out/sc", reducers),
      wl::AdjacencyListJob("/in/edges", "/out/adj", reducers),
      wl::WordCountJob("/in/text", "/out/wc", reducers),
      wl::GrepJob("/in/text", "/out/grep", reducers, "w1 "),
  };
  for (const auto& spec : jobs) {
    std::printf("%-14s", spec.name.c_str());
    auto result = runner.Run(spec);
    if (!result.ok()) {
      std::fprintf(stderr, " failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    Report(*result);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return Usage();

  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / ("jbs_cli_" + std::to_string(::getpid()));
  fs::remove_all(root);

  hdfs::MiniDfs::Options dfs_options;
  dfs_options.root = root / "dfs";
  dfs_options.num_datanodes = cli.nodes;
  dfs_options.replication = 2;
  dfs_options.block_size = 256 << 10;
  hdfs::MiniDfs dfs(dfs_options);

  auto shuffle_choice = MakeShuffle(cli.shuffle, root);
  std::printf("shuffle: %s%s\n", shuffle_choice.description.c_str(),
              cli.compress ? " (compressed map output)" : "");

  int rc = 2;
  if (cli.command == "terasort") {
    rc = RunTerasort(dfs, *shuffle_choice.plugin, root, cli);
  } else if (cli.command == "wordcount") {
    rc = RunWordCount(dfs, *shuffle_choice.plugin, root, cli);
  } else if (cli.command == "suite") {
    rc = RunSuite(dfs, *shuffle_choice.plugin, root, cli);
  } else {
    rc = Usage();
  }
  fs::remove_all(root);
  return rc;
}
