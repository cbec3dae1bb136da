// Internal to the benchmark: the sizes, set-up and bookkeeping the four
// phases share, and the phase entry points workloads.cpp runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/workloads.hpp"
#include "harness.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench::detail {

namespace bs = bc::benchsuite;
namespace core = bc::core;
namespace serve = bc::serve;
namespace vgpu = bc::vgpu;
namespace chill = bc::chill;
namespace tcr = bc::tcr;

// ---------------------------------------------------------------------------
// Sizes.  The workload's own phase runs for --seconds; the others run at
// these fixed sizes so each run still reports every end-to-end metric.
// README.md, "Traffic model", gives each traffic parameter its source: a
// derivation, a measurement, or a stated assumption.

inline constexpr std::size_t kClients = 2;          // fleet clients, mixed generators
// One closed-loop warm client: with two, every request bumps the same
// per-signature demand counters from two cores, and the p50 flips between
// about 3 and 5 us from run to run with where the host places the vCPUs.
inline constexpr std::size_t kWarmClients = 1;
// x 3 devices = 144 signatures, just above the default plan-cache
// capacity (128), so the plan cache evicts.
inline constexpr std::size_t kPrewarmExtents = 48;
inline constexpr double kZipfS = 1.0;               // assumption
inline constexpr std::size_t kBatch = 64;
// Each run measures every phase in kRounds rounds spread over the run,
// so a neighbour that slows the host for ten seconds or so spoils only
// some of each phase's samples (see README.md, "Noise").
inline constexpr std::size_t kRounds = 5;
inline constexpr double kMixedProbeSeconds = 5.0;
inline constexpr double kFleetProbeSeconds = 4.0;
inline constexpr double kTrialSeconds = 0.1;        // one closed-loop warm trial
inline constexpr std::size_t kWarmCheckRequests = 2000;
inline constexpr double kMixedWindow = 0.6;  // seconds per latency window
// Open-loop requests per second: enough that every kMixedWindow holds the
// 1000 samples windowed_percentile needs for a p99.
inline constexpr double kMixedRate = 2000;
// First sights per second: each starts a background tune of about 60 ms,
// so tuning runs beside the reads all the time without queueing.
inline constexpr double kNewShapeRate = 10;
inline constexpr double kFollowUpSeconds = 0.002;   // re-request cadence of a new shape
inline constexpr double kTunedGraceSeconds = 5;     // follow-ups past the run end
inline constexpr double kFleetWindow = 0.1;
inline constexpr double kPutShare = 0.02;           // assumption
inline constexpr double kSyncPeriod = 0.25;         // assumption
inline constexpr std::size_t kPutShapesPerClient = 16;
// A request that races a replica's stop() can go unanswered until the
// client's I/O timeout (5 s by default); a short one lets it fail over.
inline constexpr double kClientTimeout = 0.25;
inline constexpr std::size_t kSetupRepetitions = 3;

// ---------------------------------------------------------------------------
// Set-up: everything a run builds before its first timed operation.

struct Setup {
  std::vector<bs::Benchmark> suite;
  /// core::openacc_baseline(..., optimized=true) per suite kernel.
  std::vector<double> baseline_us;
  /// Prewarmed targets in popularity order (rank 0 is the hottest).
  std::vector<Target> prewarmed;
  std::string registry_text;
  /// Unseen shapes: first sights of the mixed phase, of its traced mirror,
  /// and the fleet's PUT payloads (with their fallback entries).
  std::vector<Target> fresh;
  std::vector<Target> fresh_mirror;
  std::vector<Target> put_shapes;
  std::vector<serve::PlanEntry> put_entries;
};

/// bench::paper_tune_options (the paper's SURF budget) with n_jobs = 1.
core::TuneOptions paper_options(std::uint64_t seed);
/// One set-up; `mixed_seconds` of open-loop traffic sizes the pool of
/// unseen shapes.
Setup build_setup(const RunConfig& config, double mixed_seconds);
/// A fresh registry holding the prewarmed entries.
std::unique_ptr<serve::PlanRegistry> registry_from(const Setup& s);

// ---------------------------------------------------------------------------
// Shared bookkeeping.

/// Thread-safe error sink: counts every violation, keeps the first few
/// messages.
class Errors {
 public:
  void add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (messages_.size() < 8) messages_.push_back(what);
    ++count_;
  }
  void flush_into(Outcome& out) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& m : messages_) out.errors.push_back(m);
    if (count_ > messages_.size()) {
      out.errors.push_back(std::to_string(count_ - messages_.size()) +
                           " more violations");
    }
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> messages_;
  std::size_t count_ = 0;
};

/// Served modeled_us per target must never increase (checked per client).
class Monotone {
 public:
  explicit Monotone(std::size_t n)
      : last_(n, std::numeric_limits<double>::infinity()) {}
  bool ok(std::size_t i, double us) {
    if (us > last_[i]) return false;
    last_[i] = us;
    return true;
  }

 private:
  std::vector<double> last_;
};

/// (seconds from the run start, value) samples.
using Timed = std::vector<std::pair<double, double>>;

void check_resilience(const serve::ServeStats& st, const std::string& phase,
                      Errors& errors);
std::string fmt(double v, int digits = 1);
std::string count_note(const std::string& name, const Percentiles& p);
std::vector<double> values(const Timed& timed);
/// The median over consecutive `window`-second windows of each window's
/// p-th percentile.  Windows with fewer than ten samples beyond the
/// percentile are skipped; without any full window this is the pooled
/// percentile.
double windowed_percentile(const Timed& timed, double window, double p);

// ---------------------------------------------------------------------------
// Phases.  A *_round measures one round of a phase for `seconds` and
// appends its raw samples; finish_* turns a run's samples into the
// end-to-end metrics.  Samples of round r carry times offset by
// r * kRoundOffset, so no latency window spans two rounds.  A *_trace
// runs the traced split of one workload.

inline constexpr double kRoundOffset = 1e4;

struct TuneSamples {
  std::vector<std::vector<double>> kernel_seconds;  // [kernel][pass]
  std::vector<std::string> first_plans;
  double log_gflops = 0;
  std::size_t passes = 0;
};
struct MixedSamples {
  Timed latency;
  std::vector<double> cold_us;
  std::vector<double> tuned_ms;
  std::vector<double> lateness_us;
  std::size_t requests = 0;
  std::size_t first_sights = 0;
  double busy_seconds = 0;  // generators' time inside get_executable
  double wall_seconds = 0;  // generators' scheduled time
};
struct FleetSamples {
  Timed up;    // GETs while both replicas were up
  Timed down;  // GETs after the primary stopped
};

/// At least one pass of the suite, and more until `seconds` have passed;
/// `check_execution` adds the small-extent execution check.
void tune_round(const Setup& s, const RunConfig& c, double seconds,
                bool check_execution, TuneSamples& samples, Outcome& out);
void finish_tune(const Setup& s, const TuneSamples& samples, Outcome& out);
/// The warm path's checks, untimed: kWarmCheckRequests Zipf get_plan
/// calls and one pass over the get_plan_batch batches, each answered warm
/// with its own signature and a non-increasing plan time.
void warm_check(const Setup& s, const RunConfig& c, Outcome& out);
/// Serves the round's share of the set-up's unseen shapes.
void mixed_round(const Setup& s, const RunConfig& c, double seconds,
                 std::size_t round, MixedSamples& samples, Outcome& out);
void finish_mixed(const MixedSamples& samples, Outcome& out);
void fleet_round(const Setup& s, const RunConfig& c, double seconds,
                 std::size_t round, FleetSamples& samples, Outcome& out);
void finish_fleet(const FleetSamples& samples, Outcome& out);

void tune_trace(const Setup& s, const RunConfig& c, Outcome& out);
void warm_trace(const Setup& s, const RunConfig& c, Outcome& out);
void mixed_trace(const Setup& s, const RunConfig& c, Outcome& out);
void fleet_trace(const Setup& s, const RunConfig& c, Outcome& out);

}  // namespace perfbench::detail
