// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--socket-dir <dir>]
//   perfbench --list-metrics
//
// Prints human-readable notes, then as its last line one JSON object:
// {"correct": ..., "attempted": N, "failed": N, "metrics": {...}} with
// every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  Exits 2 on bad arguments and 1 when the run itself
// throws, without a result line in either case.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--socket-dir <dir>]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : perfbench::end_to_end_metrics()) {
        std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      for (const auto& m : perfbench::per_layer_metrics()) {
        std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      }
      for (const auto& w : perfbench::workload_names()) {
        std::printf("workload %s\n", w.c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        config.trace = value == "1";
      } else if (arg == "--socket-dir") {
        config.socket_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload) return usage();

  try {
    const perfbench::Outcome out = perfbench::run(config);
    for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
    for (const auto& error : out.errors) {
      std::printf("# INCORRECT: %s\n", error.c_str());
    }
    std::printf("%s\n",
                out.report.json(out.errors.empty(), out.attempted, out.failed)
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
