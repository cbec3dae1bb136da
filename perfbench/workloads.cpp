#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace {

using namespace detail;

// Warm serving is checked in every run and measured and explained by
// serve_mixed's traced run; it has no workload of its own.
const std::vector<std::string> kWorkloads = {"tune_suite", "serve_mixed",
                                             "remote_fleet"};

// ---------------------------------------------------------------------------
// Metric catalogue and one run end to end.

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"tune_s", "s"},
    {"tune_gflops_geomean", "GFLOP/s"},
    {"mixed_p50_us", "us"},
    {"time_to_tuned_p50_ms", "ms"},
    {"remote_get_p50_us", "us"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"octopi.enumerate_ms", "ms"},
    {"octopi.variants", "count"},
    {"tcr.space_ms", "ms"},
    {"tcr.configs", "count"},
    {"core.pool_ms", "ms"},
    {"core.pool_entries", "count"},
    {"surf.featurize_ms", "ms"},
    {"surf.search_self_ms", "ms"},
    {"surf.evaluations", "count"},
    {"surf.duplicate_proposals", "count"},
    {"chill.lower_us", "us"},
    {"chill.lower_calls", "count"},
    {"vgpu.model_us", "us"},
    {"vgpu.model_calls", "count"},
    {"warm_req_per_s", "1/s"},
    {"warm_p50_us", "us"},
    {"batch64_req_per_s", "1/s"},
    {"serve.signature_us", "us"},
    {"serve.lookup_us", "us"},
    {"serve.record_demand_us", "us"},
    {"serve.hit_ratio", "ratio"},
    {"serve.batch_amortization", "ratio"},
    {"serve.fallback_us", "us"},
    {"serve.publish_us", "us"},
    {"serve.tune_ms", "ms"},
    {"serve.tune_wait_ms", "ms"},
    {"serve.tunes_started", "count"},
    {"serve.rejected", "count"},
    {"serve.upgrades", "count"},
    {"plancache.hit_ratio", "ratio"},
    {"plancache.stale", "count"},
    {"plancache.evictions", "count"},
    {"serve.materialize_us", "us"},
    {"net.ping_us", "us"},
    {"net.frame_encode_us", "us"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"remote.get_unattributed_us", "us"},
    {"remote.put_us", "us"},
    {"remote.sync_ms", "ms"},
    {"planserver.requests", "count"},
    {"remote.failovers", "count"},
    {"remote.unavailable", "count"},
    {"remote.reconnect_probes", "count"},
    {"gen.lateness_p99_us", "us"},
    {"gen.first_sight_share", "ratio"},
    {"gen.busy_share", "ratio"},
    {"remote.put_share", "ratio"},
    {"mixed_p99_us", "us"},
    {"cold_p90_us", "us"},
    {"remote_get_p99_us", "us"},
    {"one_down_get_p99_us", "us"},
    {"failed_share", "ratio"},
    {"tune_suite.unattributed_share", "ratio"},
    {"tune_suite.tracing_overhead_share", "ratio"},
    {"serve_warm.unattributed_share", "ratio"},
    {"serve_warm.tracing_overhead_share", "ratio"},
    {"serve_mixed.unattributed_share", "ratio"},
    {"serve_mixed.tracing_overhead_share", "ratio"},
    {"remote_fleet.unattributed_share", "ratio"},
    {"remote_fleet.tracing_overhead_share", "ratio"},
};

/// `measured` in catalogue order; metrics the run did not measure are 0
/// (a traced run explains one workload's layers).  Every metric the run
/// set must be in the catalogue.
Report ordered(const Report& measured, const std::vector<MetricSpec>& specs,
               std::vector<std::string>& errors) {
  const std::vector<Metric>& ms = measured.metrics();
  for (const Metric& m : ms) {
    auto it = std::find_if(specs.begin(), specs.end(),
                           [&](const MetricSpec& s) { return s.name == m.name; });
    if (it == specs.end() || it->unit != m.unit) {
      errors.push_back("metric outside the catalogue: " + m.name);
    } else if (!std::isfinite(m.value)) {
      errors.push_back("non-finite " + m.name);
    }
  }
  Report out;
  for (const MetricSpec& spec : specs) {
    auto it = std::find_if(ms.begin(), ms.end(),
                           [&](const Metric& m) { return m.name == spec.name; });
    out.set(spec.name, it == ms.end() ? 0 : it->value, spec.unit);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() { return kWorkloads; }
const std::vector<MetricSpec>& end_to_end_metrics() { return kEndToEnd; }
const std::vector<MetricSpec>& per_layer_metrics() { return kPerLayer; }

Outcome run(const RunConfig& config) {
  BARRACUDA_CHECK_MSG(std::find(kWorkloads.begin(), kWorkloads.end(),
                                config.workload) != kWorkloads.end(),
                      "unknown workload: " + config.workload);
  BARRACUDA_CHECK_MSG(config.seconds > 0, "--seconds must be positive");
  const std::string& w = config.workload;
  // serve_mixed's traced run gives half its time to the warm trace and a
  // quarter to the mixed open loop.
  double mixed_seconds = config.trace ? 0 : kMixedProbeSeconds;
  if (w == "serve_mixed") {
    mixed_seconds = config.trace ? config.seconds / 4 : config.seconds;
  }

  Outcome measured;
  std::vector<double> setup_seconds;
  Setup setup;
  for (std::size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    const Clock::time_point t0 = Clock::now();
    setup = build_setup(config, mixed_seconds);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  if (config.trace) {
    if (w == "tune_suite") tune_trace(setup, config, measured);
    if (w == "serve_mixed") {
      // Local serving: the warm path first, then the mixed traffic.
      RunConfig half = config;
      half.seconds = config.seconds / 2;
      warm_trace(setup, half, measured);
      mixed_trace(setup, half, measured);
    }
    if (w == "remote_fleet") fleet_trace(setup, config, measured);
    measured.report.set(
        "failed_share",
        measured.attempted ? static_cast<double>(measured.failed) /
                                 static_cast<double>(measured.attempted)
                           : 0,
        "ratio");
  } else {
    measured.report.set("setup_s", median(setup_seconds), "s");
    const double tune_seconds = w == "tune_suite" ? config.seconds : 0;
    const double fleet_seconds =
        w == "remote_fleet" ? config.seconds : kFleetProbeSeconds;
    TuneSamples tune;
    MixedSamples mixed;
    FleetSamples fleet;
    warm_check(setup, config, measured);
    for (std::size_t round = 0; round < kRounds; ++round) {
      tune_round(setup, config, tune_seconds / kRounds,
                 w == "tune_suite" && round == 0, tune, measured);
      mixed_round(setup, config, mixed_seconds / kRounds, round, mixed,
                  measured);
      fleet_round(setup, config, fleet_seconds / kRounds, round, fleet,
                  measured);
    }
    finish_tune(setup, tune, measured);
    finish_mixed(mixed, measured);
    finish_fleet(fleet, measured);
    for (const MetricSpec& spec : kEndToEnd) {
      const auto& ms = measured.report.metrics();
      auto it = std::find_if(ms.begin(), ms.end(), [&](const Metric& m) {
        return m.name == spec.name;
      });
      if (it == ms.end() || !(it->value > 0)) {
        measured.errors.push_back("end-to-end metric not measured: " +
                                  spec.name);
      }
    }
  }
  measured.notes.insert(measured.notes.begin(),
                        "setup: " + std::to_string(setup_seconds.size()) +
                            " repetitions, median " +
                            fmt(median(setup_seconds), 3) + " s");
  Outcome out = std::move(measured);
  out.report = ordered(out.report, config.trace ? kPerLayer : kEndToEnd,
                       out.errors);
  return out;
}

}  // namespace perfbench
