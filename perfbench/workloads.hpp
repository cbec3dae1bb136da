// The benchmark's workloads and metrics.
//
// Every run sets up once per repetition (the Table I suite, a prewarmed
// Eqn.(1) registry and a pool of unseen shapes), then measures four
// phases in a fixed order: an offline SURF tune of the suite, closed-loop
// warm serving, open-loop mixed serving, and a two-replica remote fleet.
// The workload named on the command line is the phase measured for the
// full --seconds (and the one the traced run explains); the other phases
// run at a fixed smaller size so every run reports every end-to-end
// metric.  See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the fleet's Unix sockets (relative paths keep them
  /// under the sockaddr_un length limit).
  std::string socket_dir = ".";
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<std::string>& workload_names();
/// Every metric an untraced run reports.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Every metric a traced run reports (zero where the workload's phase
/// does not exercise the layer).
const std::vector<MetricSpec>& per_layer_metrics();

struct Outcome {
  Report report;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Correctness violations; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Human-readable lines (sample counts, stage shares) printed before
  /// the result line.
  std::vector<std::string> notes;
};

Outcome run(const RunConfig& config);

}  // namespace perfbench
