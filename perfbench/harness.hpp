// Building blocks of the repository benchmark: seeded request generators,
// latency summaries, span timing for the traced run, and the one-line
// JSON metric report.  Everything here is deterministic for a given seed
// and free of any benchmark policy (see workloads.hpp for that).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/barracuda.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace bc = barracuda;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Zipf(s) over ranks [0, n): P(rank r) is proportional to 1 / (r+1)^s.
/// Sampling is an inverse-CDF lookup of one uniform draw, so a sequence
/// of picks depends only on the Rng's seed.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(bc::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile (the definition of support::percentile_sorted)
/// of an unsorted sample; 0 for an empty one.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> values);

/// A latency summary that carries its sample count.
struct Percentiles {
  std::size_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};
Percentiles summarize(std::vector<double> samples);

/// Seeded Poisson arrivals: offsets in seconds from the start of a run,
/// at `rate` per second, strictly below `seconds`.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed);

/// One request target: a problem on a device and its canonical signature.
struct Target {
  std::string family;
  bc::core::TuningProblem problem;
  bc::vgpu::DeviceProfile device;
  std::string signature;
};

/// The three device profiles requests are spread over.
std::vector<bc::vgpu::DeviceProfile> device_profiles();

/// Eqn.(1) with output extent `a` (i j k) and reduction extent `b`
/// (l m n), as DSL text and as a problem.
std::string eqn1_dsl(std::int64_t a, std::int64_t b);
bc::core::TuningProblem eqn1_problem(std::int64_t a, std::int64_t b);

/// `count` distinct (a, b) extent pairs for the prewarmed Eqn.(1) set,
/// drawn from [2, 13]^2 in seeded order.
std::vector<std::pair<std::int64_t, std::int64_t>> prewarm_extents(
    std::size_t count, std::uint64_t seed);

/// `count` distinct shapes that no prewarmed target shares: Eqn.(1) with
/// an extent above 13, NWChem S1/D1/D2 kernels at n != 16, and Lg3 at
/// small element counts, each on a seeded device.
std::vector<Target> new_shapes(std::size_t count, std::uint64_t seed);

/// Accumulated wall time and call count per named span.
class Spans {
 public:
  template <typename F>
  decltype(auto) time(const std::string& name, F&& f) {
    const Clock::time_point start = Clock::now();
    struct Stop {
      Spans* spans;
      const std::string* name;
      Clock::time_point start;
      ~Stop() { spans->add(*name, seconds_between(start, Clock::now())); }
    } stop{this, &name, start};
    return f();
  }

  void add(const std::string& name, double seconds, std::size_t calls = 1);
  void merge(const Spans& other);
  double seconds(const std::string& name) const;
  std::size_t calls(const std::string& name) const;
  /// Mean microseconds per call (0 without calls).
  double mean_us(const std::string& name) const;

 private:
  struct Stat {
    double seconds = 0;
    std::size_t calls = 0;
  };
  std::map<std::string, Stat> stats_;
};

/// True when `name` is a valid metric name: starts with a letter or
/// digit, at most 64 characters of letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's result line.
class Report {
 public:
  /// Adds a metric; a name is set once per report (a second set throws,
  /// so two phases cannot silently report one name).
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// {"correct": ..., "attempted": N, "failed": N, "metrics": {...}} on
  /// one line, every value printed with its shortest exact digits.
  std::string json(bool correct, std::size_t attempted,
                   std::size_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
