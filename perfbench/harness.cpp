#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <set>
#include <sstream>

#include "benchsuite/workloads.hpp"
#include "serve/signature.hpp"
#include "support/error.hpp"
#include "support/percentile.hpp"

namespace perfbench {

Zipf::Zipf(std::size_t n, double s) {
  BARRACUDA_CHECK_MSG(n > 0, "Zipf needs at least one rank");
  cdf_.reserve(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(bc::Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return bc::support::percentile_sorted(samples, p);
}

double median(std::vector<double> values) { return percentile(values, 50); }

Percentiles summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Percentiles out;
  out.count = samples.size();
  out.p50 = bc::support::percentile_sorted(samples, 50);
  out.p90 = bc::support::percentile_sorted(samples, 90);
  out.p99 = bc::support::percentile_sorted(samples, 99);
  return out;
}

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  BARRACUDA_CHECK_MSG(rate > 0, "arrival rate must be positive");
  bc::Rng rng(seed);
  std::vector<double> due;
  double t = 0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::vector<bc::vgpu::DeviceProfile> device_profiles() {
  return {bc::vgpu::DeviceProfile::tesla_c2050(),
          bc::vgpu::DeviceProfile::tesla_k20(),
          bc::vgpu::DeviceProfile::gtx980()};
}

std::string eqn1_dsl(std::int64_t a, std::int64_t b) {
  std::ostringstream dsl;
  dsl << "dim i j k = " << a << "\ndim l m n = " << b
      << "\nV[i j k] = Sum([l m n], A[l k] * B[m j] * C[n i] * U[l m n])\n";
  return dsl.str();
}

bc::core::TuningProblem eqn1_problem(std::int64_t a, std::int64_t b) {
  return bc::core::TuningProblem::from_dsl(
      eqn1_dsl(a, b), "eqn1_" + std::to_string(a) + "x" + std::to_string(b));
}

std::vector<std::pair<std::int64_t, std::int64_t>> prewarm_extents(
    std::size_t count, std::uint64_t seed) {
  std::vector<std::pair<std::int64_t, std::int64_t>> grid;
  for (std::int64_t a = 2; a <= 13; ++a) {
    for (std::int64_t b = 2; b <= 13; ++b) grid.emplace_back(a, b);
  }
  BARRACUDA_CHECK_MSG(count <= grid.size(), "prewarm set larger than grid");
  bc::Rng rng(seed);
  rng.shuffle(grid);
  grid.resize(count);
  return grid;
}

std::vector<Target> new_shapes(std::size_t count, std::uint64_t seed) {
  namespace bs = bc::benchsuite;
  const std::vector<bc::vgpu::DeviceProfile> devices = device_profiles();
  bc::Rng rng(seed ^ 0x6e65772d73686170ull);
  std::vector<Target> out;
  std::set<std::string> seen;
  // Bounded: the three families offer thousands of distinct shapes, so a
  // request for more than that is a caller bug, not a long loop.
  for (std::size_t tries = 0; out.size() < count; ++tries) {
    BARRACUDA_CHECK_MSG(tries < 100 * count + 1000,
                        "not enough distinct new shapes");
    Target t;
    // Families cycle so every run sees the same family mix; extents and
    // devices are seeded.
    switch (out.size() % 3) {
      case 0: {
        // At least one extent beyond the prewarmed [2, 13] grid.
        std::int64_t a = rng.uniform_int(2, 20);
        std::int64_t b = rng.uniform_int(14, 20);
        if (rng.flip()) std::swap(a, b);
        t.family = "eqn1";
        t.problem = eqn1_problem(a, b);
        break;
      }
      case 1: {
        static constexpr std::int64_t kSizes[] = {6, 8, 10, 12, 14, 18, 20};
        const int k = rng.uniform_int(1, 9);
        const std::int64_t n = kSizes[rng.index(std::size(kSizes))];
        switch (rng.index(3)) {
          case 0: t.problem = bs::nwchem_s1(k, n).problem; break;
          case 1: t.problem = bs::nwchem_d1(k, n).problem; break;
          default: t.problem = bs::nwchem_d2(k, n).problem; break;
        }
        t.family = "nwchem";
        break;
      }
      default:
        t.family = "lg3";
        t.problem = bs::lg3(rng.uniform_int(1, 64), rng.uniform_int(4, 10))
                        .problem;
        break;
    }
    t.device = devices[rng.index(devices.size())];
    t.signature = bc::serve::signature(t.problem, t.device);
    if (seen.insert(t.signature).second) out.push_back(std::move(t));
  }
  return out;
}

void Spans::add(const std::string& name, double seconds, std::size_t calls) {
  Stat& s = stats_[name];
  s.seconds += seconds;
  s.calls += calls;
}

void Spans::merge(const Spans& other) {
  for (const auto& [name, stat] : other.stats_) {
    add(name, stat.seconds, stat.calls);
  }
}

double Spans::seconds(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? 0.0 : it->second.seconds;
}

std::size_t Spans::calls(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? 0 : it->second.calls;
}

double Spans::mean_us(const std::string& name) const {
  const std::size_t n = calls(name);
  return n ? seconds(name) * 1e6 / static_cast<double>(n) : 0.0;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  BARRACUDA_CHECK_MSG(valid_metric_name(name), "bad metric name: " + name);
  for (const Metric& m : metrics_) {
    BARRACUDA_CHECK_MSG(m.name != name, "metric set twice: " + name);
  }
  metrics_.push_back({name, value, unit});
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;  // JSON has no NaN/inf; callers check
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  BARRACUDA_CHECK(ec == std::errc());
  return std::string(buf, end);
}

}  // namespace

std::string Report::json(bool correct, std::size_t attempted,
                         std::size_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
