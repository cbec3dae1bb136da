#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "bench/bench_common.hpp"
#include "core/barracuda.hpp"
#include "octopi/parser.hpp"
#include "serve/signature.hpp"

namespace perfbench::detail {

core::TuneOptions paper_options(std::uint64_t seed) {
  core::TuneOptions options = bc::bench::paper_tune_options(seed);
  options.search.n_jobs = 1;
  return options;
}

namespace {

std::vector<bs::Benchmark> table1_suite() {
  std::vector<bs::Benchmark> suite = bs::table2_benchmarks();
  for (const auto& family :
       {bs::s1_family(16), bs::d1_family(16), bs::d2_family(16)}) {
    suite.insert(suite.end(), family.begin(), family.end());
  }
  return suite;
}

std::size_t fresh_count(double seconds) {
  return static_cast<std::size_t>(std::ceil(kNewShapeRate * 0.8 * seconds));
}

}  // namespace

Setup build_setup(const RunConfig& config, double mixed_seconds) {
  Setup s;
  s.suite = table1_suite();
  const vgpu::DeviceProfile k20 = vgpu::DeviceProfile::tesla_k20();
  for (const auto& b : s.suite) {
    s.baseline_us.push_back(
        core::openacc_baseline(b.problem, k20, true).timing.total_us);
  }

  // Prewarm: seeded Eqn.(1) extents x device profiles through the
  // serving layer's own prewarm, with a small search budget (the entries'
  // quality is not what the serving phases measure).
  const std::vector<vgpu::DeviceProfile> devices = device_profiles();
  serve::PlanRegistry registry;
  serve::PrewarmOptions prewarm;
  prewarm.tune.search.max_evaluations = 10;
  prewarm.tune.search.batch_size = 10;
  prewarm.tune.max_pool = 64;
  prewarm.tune.search.n_jobs = 4;
  for (auto [a, b] : prewarm_extents(kPrewarmExtents, config.seed)) {
    const core::TuningProblem problem = eqn1_problem(a, b);
    serve::prewarm(registry,
                   bc::octopi::parse_octopi(eqn1_dsl(a, b), problem.name),
                   devices, prewarm);
    for (const auto& device : devices) {
      s.prewarmed.push_back(
          {"eqn1", problem, device, serve::signature(problem, device)});
    }
  }
  bc::Rng order(config.seed * 0x9e3779b97f4a7c15ull + 17);
  order.shuffle(s.prewarmed);
  s.registry_text = registry.to_text();

  // One pool of unseen shapes, split three ways so no phase sees another
  // phase's shape as warm.
  const std::size_t mixed = fresh_count(mixed_seconds);
  std::vector<Target> shapes =
      new_shapes(2 * mixed + kClients * kPutShapesPerClient, config.seed);
  auto take = [&](std::size_t from, std::size_t n) {
    return std::vector<Target>(shapes.begin() + from,
                               shapes.begin() + from + n);
  };
  s.fresh = take(0, mixed);
  s.fresh_mirror = take(mixed, mixed);
  s.put_shapes = take(2 * mixed, kClients * kPutShapesPerClient);
  for (const Target& t : s.put_shapes) {
    s.put_entries.push_back(serve::fallback_plan(t.problem, t.device));
  }
  return s;
}

std::unique_ptr<serve::PlanRegistry> registry_from(const Setup& s) {
  auto registry = std::make_unique<serve::PlanRegistry>();
  registry->merge_text(s.registry_text, "<prewarm>");
  return registry;
}

void check_resilience(const serve::ServeStats& st, const std::string& phase,
                      Errors& errors) {
  if (st.retries || st.tune_failures || st.breaker_open) {
    errors.add(phase + ": retries/tune failures/open breakers = " +
               std::to_string(st.retries) + "/" +
               std::to_string(st.tune_failures) + "/" +
               std::to_string(st.breaker_open));
  }
}

std::string fmt(double v, int digits) {
  std::ostringstream s;
  s.setf(std::ios::fixed);
  s.precision(digits);
  s << v;
  return s.str();
}

std::string count_note(const std::string& name, const Percentiles& p) {
  return name + ": n=" + std::to_string(p.count) + " p50=" + fmt(p.p50) +
         " p90=" + fmt(p.p90) + " p99=" + fmt(p.p99) + " us";
}

std::vector<double> values(const Timed& timed) {
  std::vector<double> out;
  out.reserve(timed.size());
  for (const auto& sample : timed) out.push_back(sample.second);
  return out;
}

double windowed_percentile(const Timed& timed, double window, double p) {
  std::map<long, std::vector<double>> by_window;
  for (const auto& [t, v] : timed) {
    by_window[static_cast<long>(t / window)].push_back(v);
  }
  const double needed = 10.0 / (1.0 - p / 100.0);
  std::vector<double> per_window;
  for (auto& [index, samples] : by_window) {
    if (static_cast<double>(samples.size()) >= needed) {
      per_window.push_back(percentile(std::move(samples), p));
    }
  }
  return per_window.empty() ? percentile(values(timed), p)
                            : median(per_window);
}

}  // namespace perfbench::detail
