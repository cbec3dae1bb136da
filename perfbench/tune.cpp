#include "common.hpp"

#include <cmath>
#include <set>
#include <sstream>

#include "chill/lower.hpp"
#include "core/report.hpp"
#include "surf/features.hpp"
#include "tcr/decision.hpp"
#include "tcr/loopnest.hpp"
#include "tensor/einsum.hpp"
#include "tensor/tensor.hpp"
#include "vgpu/executor.hpp"
#include "vgpu/perfmodel.hpp"

namespace perfbench::detail {
namespace {

// ---------------------------------------------------------------------------
// tune_suite: core::tune of the Table I set on tesla_k20.

std::string describe(const core::TuneResult& r) {
  std::ostringstream s;
  s.precision(17);
  s << r.best_variant << "|" << core::serialize_recipe(r.best_recipe) << "|"
    << r.modeled_us();
  return s.str();
}

/// One core::tune per suite kernel; appends each kernel's wall seconds
/// to (*kernel_seconds)[i] when given.
std::vector<core::TuneResult> tune_pass(
    const Setup& s, const core::TuneOptions& options,
    std::vector<std::vector<double>>* kernel_seconds = nullptr) {
  const vgpu::DeviceProfile k20 = vgpu::DeviceProfile::tesla_k20();
  std::vector<core::TuneResult> results;
  results.reserve(s.suite.size());
  for (std::size_t i = 0; i < s.suite.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    results.push_back(core::tune(s.suite[i].problem, k20, options));
    if (kernel_seconds) {
      (*kernel_seconds)[i].push_back(seconds_between(t0, Clock::now()));
    }
  }
  return results;
}

/// Tune `problem` at small extents, run the plan on the virtual GPU and
/// compare with the reference einsum.
bool executes_correctly(const core::TuningProblem& problem,
                        const core::TuneOptions& options) {
  core::TuneResult result =
      core::tune(problem, vgpu::DeviceProfile::tesla_k20(), options);
  const bc::tcr::TcrProgram& program = result.best_program();
  bc::Rng rng(11);
  bc::tensor::TensorEnv env;
  for (const auto& name : program.input_names()) {
    std::vector<std::int64_t> dims;
    for (const auto& ix : program.variable(name).indices) {
      dims.push_back(program.extents.at(ix));
    }
    env.emplace(name, bc::tensor::Tensor::random(dims, rng));
  }
  for (const auto& name : program.output_names()) {
    std::vector<std::int64_t> dims;
    for (const auto& ix : program.variable(name).indices) {
      dims.push_back(program.extents.at(ix));
    }
    env.emplace(name, bc::tensor::Tensor::zeros(dims));
  }
  bc::tensor::TensorEnv reference = env;
  result.run(env);
  for (const auto& stmt : problem.statements) {
    bc::tensor::evaluate(stmt, problem.extents, reference);
  }
  for (const auto& name : program.output_names()) {
    if (!bc::tensor::Tensor::allclose(env.at(name), reference.at(name),
                                      1e-9)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void tune_round(const Setup& s, const RunConfig& c, double seconds,
                bool check_execution, TuneSamples& samples, Outcome& out) {
  const core::TuneOptions options = paper_options(c.seed);
  samples.kernel_seconds.resize(s.suite.size());
  const Clock::time_point start = Clock::now();
  do {
    std::vector<core::TuneResult> results =
        tune_pass(s, options, &samples.kernel_seconds);
    ++samples.passes;
    out.attempted += results.size();
    std::vector<std::string> plans;
    for (const auto& r : results) plans.push_back(describe(r));
    if (samples.first_plans.empty()) {
      samples.first_plans = plans;
      for (std::size_t i = 0; i < results.size(); ++i) {
        samples.log_gflops += std::log(results[i].modeled_gflops());
        if (!(results[i].modeled_us() <= s.baseline_us[i])) {
          out.errors.push_back("tune_suite: " + s.suite[i].name +
                               " is slower than the OpenACC baseline");
        }
      }
    } else if (plans != samples.first_plans) {
      out.errors.push_back("tune_suite: two passes with one seed differ");
    }
  } while (seconds_between(start, Clock::now()) < seconds);

  if (check_execution &&
      (!executes_correctly(eqn1_problem(4, 3), options) ||
       !executes_correctly(bs::lg3(2, 4).problem, options))) {
    out.errors.push_back(
        "tune_suite: executed plan differs from tensor::evaluate");
  }
}

void finish_tune(const Setup& s, const TuneSamples& samples, Outcome& out) {
  // A median pass: each kernel's median time over the passes, summed.
  double tune_s = 0;
  for (const auto& k : samples.kernel_seconds) tune_s += median(k);
  out.report.set("tune_s", tune_s, "s");
  out.report.set(
      "tune_gflops_geomean",
      std::exp(samples.log_gflops / static_cast<double>(s.suite.size())),
      "GFLOP/s");
  out.notes.push_back("tune_suite: " + std::to_string(samples.passes) +
                      " passes of " + std::to_string(s.suite.size()) +
                      " kernels");
}

namespace {

// The traced tune: core::tune's pipeline driven stage by stage through
// public functions, each call timed.  The pool sampling mirrors
// core::tune's own (bench-only); tune_trace checks every result against
// core::tune bit for bit, so the spans describe the same program.

struct PoolEntry {
  std::size_t variant = 0;
  std::vector<std::size_t> config;
  auto operator<=>(const PoolEntry&) const = default;
};

struct VariantSpace {
  std::vector<std::vector<tcr::KernelConfig>> op_configs;
  double size = 1;
};

chill::Recipe recipe_of(const VariantSpace& space, const PoolEntry& e) {
  chill::Recipe recipe;
  for (std::size_t op = 0; op < space.op_configs.size(); ++op) {
    recipe.push_back(space.op_configs[op][e.config[op]]);
  }
  return recipe;
}

std::vector<PoolEntry> sample_pool(const std::vector<VariantSpace>& spaces,
                                   double total_size,
                                   const core::TuneOptions& options) {
  std::vector<PoolEntry> pool;
  if (total_size <= static_cast<double>(options.max_pool)) {
    for (std::size_t v = 0; v < spaces.size(); ++v) {
      PoolEntry e;
      e.variant = v;
      e.config.assign(spaces[v].op_configs.size(), 0);
      while (true) {
        pool.push_back(e);
        std::size_t d = e.config.size();
        bool done = true;
        while (d > 0) {
          --d;
          if (++e.config[d] < spaces[v].op_configs[d].size()) {
            done = false;
            break;
          }
          e.config[d] = 0;
        }
        if (done) break;
      }
    }
    return pool;
  }
  bc::Rng rng(options.pool_seed);
  std::set<PoolEntry> seen;
  const std::size_t share =
      std::max<std::size_t>(1, options.max_pool / spaces.size());
  for (std::size_t v = 0; v < spaces.size(); ++v) {
    const std::size_t quota = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(share), spaces[v].size));
    std::size_t attempts = 0;
    std::size_t taken = 0;
    while (taken < quota && attempts < quota * 20) {
      ++attempts;
      PoolEntry e;
      e.variant = v;
      for (const auto& configs : spaces[v].op_configs) {
        e.config.push_back(rng.index(configs.size()));
      }
      if (seen.insert(e).second) {
        pool.push_back(std::move(e));
        ++taken;
      }
    }
  }
  return pool;
}

/// Top-level spans of one traced tune; they partition its wall time up
/// to the glue between calls.
const std::vector<std::string> kTuneStages = {
    "octopi.enumerate", "tcr.space",   "core.pool",    "surf.featurize",
    "surf.search",      "core.final",  "core.teardown"};

std::string traced_tune(const core::TuningProblem& problem,
                        const vgpu::DeviceProfile& device,
                        const core::TuneOptions& options, Spans& spans) {
  BARRACUDA_CHECK_MSG(options.search.n_jobs == 1,
                      "the traced tune times a sequential search");
  std::vector<tcr::TcrProgram> variants =
      spans.time("octopi.enumerate", [&] {
        return core::enumerate_programs(problem, options.octopi,
                                        options.max_joint_variants);
      });
  spans.add("octopi.variants", 0, variants.size());

  std::vector<VariantSpace> spaces;
  double total_size = 0;
  spans.time("tcr.space", [&] {
    for (const auto& program : variants) {
      VariantSpace space;
      for (const auto& nest : tcr::build_loop_nests(program)) {
        tcr::KernelSpace ks = tcr::derive_space(nest, options.decision);
        space.op_configs.push_back(tcr::enumerate_configs(nest, ks));
        space.size *= static_cast<double>(space.op_configs.back().size());
      }
      total_size += space.size;
      spaces.push_back(std::move(space));
    }
  });
  for (const auto& space : spaces) {
    for (const auto& configs : space.op_configs) {
      spans.add("tcr.configs", 0, configs.size());
    }
  }

  std::vector<PoolEntry> pool = spans.time(
      "core.pool", [&] { return sample_pool(spaces, total_size, options); });
  BARRACUDA_CHECK_MSG(!pool.empty(), "empty tuning pool");
  spans.add("core.pool_entries", 0, pool.size());

  std::vector<std::vector<double>> features;
  spans.time("surf.featurize", [&] {
    bc::surf::RecipeFeaturizer featurizer(variants);
    features.reserve(pool.size());
    for (const auto& e : pool) {
      features.push_back(
          featurizer.encode(e.variant, recipe_of(spaces[e.variant], e)));
    }
  });

  auto lower_and_model = [&](const tcr::TcrProgram& program,
                             const chill::Recipe& recipe) {
    const chill::GpuPlan plan = spans.time(
        "chill.lower", [&] { return chill::lower_program(program, recipe); });
    return spans.time("vgpu.model",
                      [&] { return vgpu::model_plan(plan, device); });
  };
  auto objective = [&](std::size_t i) {
    const Clock::time_point t0 = Clock::now();
    const PoolEntry& e = pool[i];
    const double us =
        lower_and_model(variants[e.variant], recipe_of(spaces[e.variant], e))
            .total_us;
    spans.add("surf.objective", seconds_between(t0, Clock::now()));
    return std::isfinite(us) ? us : 1e15;
  };
  const bc::surf::SearchResult search = spans.time("surf.search", [&] {
    return bc::surf::surf_search(features, objective, options.search);
  });
  spans.add("surf.evaluations", 0, search.evaluations());
  spans.add("surf.duplicate_proposals", 0, search.duplicate_proposals);

  // core::tune's final choice: the static default mapping is always a
  // candidate, then the winner is lowered and modelled once more.
  std::string described = spans.time("core.final", [&] {
    const PoolEntry& best = pool[search.best_index];
    std::size_t variant = best.variant;
    chill::Recipe recipe = recipe_of(spaces[best.variant], best);
    chill::Recipe default_recipe =
        chill::openacc_optimized_recipe(variants.front());
    if (lower_and_model(variants.front(), default_recipe).total_us <
        search.best_value) {
      variant = 0;
      recipe = std::move(default_recipe);
    }
    const double us = lower_and_model(variants[variant], recipe).total_us;
    std::ostringstream s;
    s.precision(17);
    s << variant << "|" << core::serialize_recipe(recipe) << "|" << us;
    return s.str();
  });
  // Freeing the spaces (millions of configs for the NWChem kernels) is
  // part of every core::tune call too.
  spans.time("core.teardown", [&] {
    std::vector<VariantSpace>().swap(spaces);
    std::vector<std::vector<double>>().swap(features);
    std::vector<PoolEntry>().swap(pool);
    std::vector<tcr::TcrProgram>().swap(variants);
  });
  return described;
}

}  // namespace

void tune_trace(const Setup& s, const RunConfig& c, Outcome& out) {
  const core::TuneOptions options = paper_options(c.seed);
  const vgpu::DeviceProfile k20 = vgpu::DeviceProfile::tesla_k20();
  Spans spans;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<std::string> reference;
  const Clock::time_point start = Clock::now();
  do {
    Clock::time_point t0 = Clock::now();
    const std::vector<core::TuneResult> results = tune_pass(s, options);
    untraced.push_back(seconds_between(t0, Clock::now()));
    if (reference.empty()) {
      for (const auto& r : results) reference.push_back(describe(r));
    }
    t0 = Clock::now();
    for (std::size_t i = 0; i < s.suite.size(); ++i) {
      if (traced_tune(s.suite[i].problem, k20, options, spans) !=
          reference[i]) {
        out.errors.push_back("tune_suite: traced pipeline differs from "
                             "core::tune on " + s.suite[i].name);
      }
    }
    traced.push_back(seconds_between(t0, Clock::now()));
    out.attempted += 2 * s.suite.size();
  } while (seconds_between(start, Clock::now()) < c.seconds);

  const double passes = static_cast<double>(traced.size());
  auto per_pass = [&](const std::string& name) {
    return static_cast<double>(spans.calls(name)) / passes;
  };
  auto ms = [&](const std::string& name) {
    return spans.seconds(name) * 1e3 / passes;
  };
  Report& r = out.report;
  r.set("octopi.enumerate_ms", ms("octopi.enumerate"), "ms");
  r.set("octopi.variants", per_pass("octopi.variants"), "count");
  r.set("tcr.space_ms", ms("tcr.space"), "ms");
  r.set("tcr.configs", per_pass("tcr.configs"), "count");
  r.set("core.pool_ms", ms("core.pool"), "ms");
  r.set("core.pool_entries", per_pass("core.pool_entries"), "count");
  r.set("surf.featurize_ms", ms("surf.featurize"), "ms");
  r.set("surf.search_self_ms", ms("surf.search") - ms("surf.objective"),
        "ms");
  r.set("surf.evaluations", per_pass("surf.evaluations"), "count");
  r.set("surf.duplicate_proposals", per_pass("surf.duplicate_proposals"),
        "count");
  r.set("chill.lower_us", spans.mean_us("chill.lower"), "us");
  r.set("chill.lower_calls", per_pass("chill.lower"), "count");
  r.set("vgpu.model_us", spans.mean_us("vgpu.model"), "us");
  r.set("vgpu.model_calls", per_pass("vgpu.model"), "count");

  double traced_total = 0;
  for (double t : traced) traced_total += t;
  double attributed = 0;
  for (const auto& stage : kTuneStages) attributed += spans.seconds(stage);
  r.set("tune_suite.unattributed_share", 1.0 - attributed / traced_total,
        "ratio");
  r.set("tune_suite.tracing_overhead_share",
        median(traced) / median(untraced) - 1.0, "ratio");

  // The stage-share table: each stage's part of the traced pass.
  std::vector<std::pair<std::string, double>> shares = {
      {"octopi.enumerate", spans.seconds("octopi.enumerate")},
      {"tcr.space", spans.seconds("tcr.space")},
      {"core.pool", spans.seconds("core.pool")},
      {"surf.featurize", spans.seconds("surf.featurize")},
      {"surf.search (self)",
       spans.seconds("surf.search") - spans.seconds("surf.objective")},
      {"objective: chill.lower + vgpu.model",
       spans.seconds("surf.objective")},
      {"core.final", spans.seconds("core.final")},
      {"core.teardown", spans.seconds("core.teardown")},
      {"unattributed", traced_total - attributed}};
  out.notes.push_back("tune_suite stage shares over " +
                      std::to_string(traced.size()) + " traced passes:");
  for (const auto& [name, seconds] : shares) {
    out.notes.push_back("  " + name + ": " +
                        fmt(100.0 * seconds / traced_total) + "%");
  }
}

}  // namespace perfbench::detail
