#include "common.hpp"

#include <algorithm>
#include <barrier>
#include <functional>
#include <queue>
#include <thread>

#include "serve/plancache.hpp"
#include "serve/signature.hpp"

namespace perfbench::detail {
namespace {

// ---------------------------------------------------------------------------
// Closed-loop client trials (serve_warm).

/// One closed-loop operation: issues a request, fills the number of
/// requests it served and their per-request latency in microseconds.
using ClosedOp = std::function<void(std::size_t client, bc::Rng& rng,
                                    std::size_t* served, double* us)>;

struct TrialStats {
  std::vector<double> rate;  // requests per second, one per trial
  std::vector<double> p50;   // per-request latency median, one per trial
  std::size_t requests = 0;
  std::size_t samples = 0;
};

/// `trials` trials of `trial_seconds` each on kWarmClients threads that start
/// and stop together; a trial's rate is its requests over its wall time.
TrialStats closed_loop(std::size_t trials, double trial_seconds,
                       std::uint64_t seed, const ClosedOp& op) {
  std::barrier sync(static_cast<std::ptrdiff_t>(kWarmClients + 1));
  Clock::time_point deadline;
  std::vector<std::vector<std::vector<float>>> latency(
      kWarmClients, std::vector<std::vector<float>>(trials));
  std::vector<std::vector<std::size_t>> served(
      kWarmClients, std::vector<std::size_t>(trials, 0));
  std::vector<std::thread> threads;
  for (std::size_t client = 0; client < kWarmClients; ++client) {
    threads.emplace_back([&, client] {
      bc::Rng rng(seed * 0x100000001b3ull + client);
      for (std::size_t t = 0; t < trials; ++t) {
        sync.arrive_and_wait();
        while (Clock::now() < deadline) {
          std::size_t n = 0;
          double us = 0;
          op(client, rng, &n, &us);
          served[client][t] += n;
          latency[client][t].push_back(static_cast<float>(us));
        }
        sync.arrive_and_wait();
      }
    });
  }
  TrialStats stats;
  for (std::size_t t = 0; t < trials; ++t) {
    const Clock::time_point begin = Clock::now();
    deadline = begin + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(trial_seconds));
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    const double wall = seconds_between(begin, Clock::now());
    std::size_t requests = 0;
    std::vector<double> all;
    for (std::size_t c = 0; c < kWarmClients; ++c) {
      requests += served[c][t];
      all.insert(all.end(), latency[c][t].begin(), latency[c][t].end());
    }
    stats.rate.push_back(static_cast<double>(requests) / wall);
    stats.p50.push_back(percentile(all, 50));
    stats.requests += requests;
    stats.samples += all.size();
  }
  for (auto& th : threads) th.join();
  return stats;
}

std::size_t trial_count(double seconds) {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(std::lround(seconds / kTrialSeconds)));
}

struct WarmBatch {
  std::size_t device = 0;
  std::vector<core::TuningProblem> problems;
  std::vector<std::size_t> targets;
};

/// Zipf-picked 64-request batches, one device per batch (the batch API
/// takes one device).
std::vector<WarmBatch> warm_batches(const Setup& s, std::uint64_t seed) {
  const std::vector<vgpu::DeviceProfile> devices = device_profiles();
  std::vector<std::vector<std::size_t>> per_device(devices.size());
  for (std::size_t i = 0; i < s.prewarmed.size(); ++i) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (s.prewarmed[i].device.name == devices[d].name) {
        per_device[d].push_back(i);
      }
    }
  }
  bc::Rng rng(seed * 7 + 3);
  std::vector<WarmBatch> batches(16);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    WarmBatch& batch = batches[b];
    batch.device = b % devices.size();
    const std::vector<std::size_t>& pool = per_device[batch.device];
    Zipf zipf(pool.size(), kZipfS);
    for (std::size_t k = 0; k < kBatch; ++k) {
      const std::size_t i = pool[zipf(rng)];
      batch.targets.push_back(i);
      batch.problems.push_back(s.prewarmed[i].problem);
    }
  }
  return batches;
}

/// The warm phase runs no write path: every request hits the registry,
/// and nothing is tuned, rejected or upgraded.
void check_warm_stats(const serve::ServeStats& st, Errors& errors) {
  check_resilience(st, "serve_warm", errors);
  if (st.registry_misses != 0 || st.tunes_started != 0 || st.rejected != 0 ||
      st.upgrades != 0) {
    errors.add("serve_warm: the warm phase missed, tuned or upgraded");
  }
}

}  // namespace

void warm_check(const Setup& s, const RunConfig& c, Outcome& out) {
  auto registry = registry_from(s);
  serve::ServeOptions options;
  options.tune = paper_options(c.seed);
  serve::TuningService service(*registry, options);
  const std::vector<vgpu::DeviceProfile> devices = device_profiles();
  const Zipf zipf(s.prewarmed.size(), kZipfS);
  Errors errors;
  Monotone monotone(s.prewarmed.size());
  std::size_t failed = 0;
  bc::Rng rng(c.seed * 0x100000001b3ull);
  for (std::size_t n = 0; n < kWarmCheckRequests; ++n) {
    const std::size_t i = zipf(rng);
    const Target& t = s.prewarmed[i];
    try {
      const serve::ServedPlan plan = service.get_plan(t.problem, t.device);
      if (plan.signature != t.signature ||
          plan.source != serve::ServedPlan::Source::kWarm ||
          !monotone.ok(i, plan.plan.modeled_us)) {
        errors.add("serve_warm: wrong answer for " + t.signature);
      }
    } catch (const std::exception& e) {
      ++failed;
      errors.add(std::string("serve_warm: get_plan threw: ") + e.what());
    }
  }
  std::size_t batched = 0;
  for (const WarmBatch& batch : warm_batches(s, c.seed)) {
    batched += batch.problems.size();
    try {
      const std::vector<serve::ServedPlan> plans =
          service.get_plan_batch(batch.problems, devices[batch.device]);
      for (std::size_t k = 0; k < plans.size(); ++k) {
        const std::size_t i = batch.targets[k];
        if (plans[k].signature != s.prewarmed[i].signature ||
            !monotone.ok(i, plans[k].plan.modeled_us)) {
          errors.add("serve_warm: wrong batch answer");
        }
      }
    } catch (const std::exception& e) {
      failed += batch.problems.size();
      errors.add(std::string("serve_warm: get_plan_batch threw: ") +
                 e.what());
    }
  }
  check_warm_stats(service.snapshot(), errors);
  errors.flush_into(out);
  out.attempted += kWarmCheckRequests + batched;
  out.failed += failed;
}

/// The traced warm run: the same closed loop once through get_plan and
/// once through the public calls get_plan makes on a warm hit.
void warm_trace(const Setup& s, const RunConfig& c, Outcome& out) {
  warm_check(s, c, out);
  auto registry = registry_from(s);
  serve::ServeOptions options;
  options.tune = paper_options(c.seed);
  serve::TuningService service(*registry, options);
  const std::vector<vgpu::DeviceProfile> devices = device_profiles();
  const Zipf zipf(s.prewarmed.size(), kZipfS);
  Errors errors;
  const double half = c.seconds / 2;
  const std::size_t trials = trial_count(half * 2 / 3);

  const TrialStats untraced = closed_loop(
      trials, half * 2 / 3 / trials, c.seed,
      [&](std::size_t, bc::Rng& rng, std::size_t* served, double* us) {
        const Target& t = s.prewarmed[zipf(rng)];
        const Clock::time_point t0 = Clock::now();
        (void)service.get_plan(t.problem, t.device);
        *us = seconds_between(t0, Clock::now()) * 1e6;
        *served = 1;
      });
  const std::vector<WarmBatch> batches = warm_batches(s, c.seed);
  const TrialStats batch = closed_loop(
      trials, half / 3 / trials, c.seed + 1,
      [&](std::size_t, bc::Rng& rng, std::size_t* served, double* us) {
        const WarmBatch& b = batches[rng.index(batches.size())];
        const Clock::time_point t0 = Clock::now();
        (void)service.get_plan_batch(b.problems, devices[b.device]);
        *us = seconds_between(t0, Clock::now()) * 1e6 / kBatch;
        *served = kBatch;
      });
  const serve::ServeStats st = service.snapshot();

  std::vector<Spans> spans(kWarmClients);
  const TrialStats mirror = closed_loop(
      trials, half / trials, c.seed,
      [&](std::size_t client, bc::Rng& rng, std::size_t* served,
          double* us) {
        const Target& t = s.prewarmed[zipf(rng)];
        Spans& sp = spans[client];
        const Clock::time_point t0 = Clock::now();
        const std::string sig = sp.time(
            "serve.signature", [&] { return serve::signature(t.problem,
                                                             t.device); });
        serve::PlanEntry entry;
        const bool hit = sp.time("serve.lookup",
                                 [&] { return registry->lookup(sig, &entry); });
        sp.time("serve.record_demand",
                [&] { registry->record_demand(sig, entry.modeled_us); });
        const double seconds = seconds_between(t0, Clock::now());
        sp.add("request", seconds);
        *us = seconds * 1e6;
        *served = 1;
        if (!hit || sig != t.signature) errors.add("serve_warm: mirror miss");
      });
  Spans all;
  for (const Spans& sp : spans) all.merge(sp);
  check_warm_stats(st, errors);
  errors.flush_into(out);
  out.attempted += untraced.requests + batch.requests + mirror.requests;

  // The warm path's own figures are too unsteady on a shared host to bound
  // (see README.md), so they are reported here rather than end to end.
  // serve.hit_ratio and serve.tunes_started come from mixed_trace: here
  // they are 1 and 0 by the checks above.
  Report& r = out.report;
  r.set("warm_req_per_s", median(untraced.rate), "1/s");
  r.set("warm_p50_us", median(untraced.p50), "us");
  r.set("batch64_req_per_s", median(batch.rate), "1/s");
  r.set("serve.signature_us", all.mean_us("serve.signature"), "us");
  r.set("serve.lookup_us", all.mean_us("serve.lookup"), "us");
  r.set("serve.record_demand_us", all.mean_us("serve.record_demand"), "us");
  r.set("serve.batch_amortization",
        st.batch_signature_lookups
            ? static_cast<double>(st.batch_requests) /
                  static_cast<double>(st.batch_signature_lookups)
            : 0,
        "ratio");
  const double covered = all.seconds("serve.signature") +
                         all.seconds("serve.lookup") +
                         all.seconds("serve.record_demand");
  r.set("serve_warm.unattributed_share",
        1.0 - covered / all.seconds("request"), "ratio");
  r.set("serve_warm.tracing_overhead_share",
        median(untraced.rate) / median(mirror.rate) - 1.0, "ratio");
}

namespace {

// ---------------------------------------------------------------------------
// Open-loop generator (serve_mixed).

/// Spin until `due`.  Sleeping wakes tens of microseconds late, which
/// would be charged to the program; and a generator that slept between
/// requests (even one that woke 200 us early to spin) let the host run
/// other work on its vCPU, so each request ran on caches the host had
/// used, and mixed_p50_us followed the host: IQR/median 0.13-0.22 over
/// ten runs, against 0.07-0.16 spinning (README.md, "Noise").
void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

struct MixedRun {
  Timed latency_us;                 // due -> answered, requests due in the run
  std::vector<double> cold_us;      // first sights
  std::vector<double> lateness_us;  // due -> sent
  std::vector<double> tuned_ms;     // first request -> first tuned answer
  std::vector<double> service_us;   // sent -> answered
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// kClients generator threads send get_executable requests on a seeded
/// Poisson schedule (kMixedRate in total) of Zipf picks over `warm`, plus
/// the first sight of each `fresh` shape at evenly spaced times in the
/// first 80% of the run; a fresh shape is then re-requested every
/// kFollowUpSeconds until it is answered with a tuned plan.
MixedRun open_loop(serve::TuningService& service,
                   const std::vector<Target>& warm,
                   const std::vector<Target>& fresh, double seconds,
                   std::uint64_t seed, Errors& errors) {
  enum Kind { kWarm, kFirst, kFollow };
  struct Event {
    double due;
    Kind kind;
    std::size_t index;
    bool operator>(const Event& o) const { return due > o.due; }
  };
  const Zipf zipf(warm.size(), kZipfS);
  std::vector<double> first_due(fresh.size());
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    first_due[k] = (static_cast<double>(k) + 0.5) * 0.8 * seconds /
                   static_cast<double>(fresh.size());
  }
  std::vector<double> tuned_ms(fresh.size(), -1);
  std::vector<MixedRun> runs(kClients);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };

  std::vector<std::thread> threads;
  for (std::size_t g = 0; g < kClients; ++g) {
    threads.emplace_back([&, g] {
      MixedRun& run = runs[g];
      bc::Rng rng(seed * 0x2545f4914f6cdd1dull + g);
      std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
      for (double due : poisson_schedule(kMixedRate / kClients, seconds,
                                         seed * 31 + g)) {
        queue.push({due, kWarm, zipf(rng)});
      }
      for (std::size_t k = g; k < fresh.size(); k += kClients) {
        queue.push({first_due[k], kFirst, k});
      }
      Monotone warm_mono(warm.size());
      Monotone fresh_mono(fresh.size());
      while (!queue.empty()) {
        const Event e = queue.top();
        queue.pop();
        if (e.due > seconds + kTunedGraceSeconds) {
          errors.add("serve_mixed: " + fresh[e.index].signature +
                     " was never answered with a tuned plan");
          continue;
        }
        const Target& t = e.kind == kWarm ? warm[e.index] : fresh[e.index];
        const Clock::time_point due = at(e.due);
        wait_until(due);
        const Clock::time_point sent = Clock::now();
        serve::ExecutableServedPlan answer;
        bool ok = true;
        try {
          answer = service.get_executable(t.problem, t.device);
        } catch (const std::exception& ex) {
          ok = false;
          errors.add(std::string("serve_mixed: get_executable threw: ") +
                     ex.what());
        }
        const Clock::time_point done = Clock::now();
        ++run.attempted;
        if (!ok) {
          ++run.failed;
          continue;
        }
        if (e.due < seconds) {
          run.latency_us.emplace_back(e.due,
                                      seconds_between(due, done) * 1e6);
          run.lateness_us.push_back(seconds_between(due, sent) * 1e6);
          run.service_us.push_back(seconds_between(sent, done) * 1e6);
        }
        Monotone& mono = e.kind == kWarm ? warm_mono : fresh_mono;
        if (answer.served.signature != t.signature || !answer.executable ||
            !mono.ok(e.index, answer.served.plan.modeled_us)) {
          errors.add("serve_mixed: wrong answer for " + t.signature);
        }
        if (e.kind == kFirst) {
          run.cold_us.push_back(seconds_between(due, done) * 1e6);
          if (answer.served.source != serve::ServedPlan::Source::kCold) {
            errors.add("serve_mixed: first sight was not cold: " +
                       t.signature);
          }
        }
        if (e.kind != kWarm) {
          if (answer.served.plan.tuned) {
            tuned_ms[e.index] =
                seconds_between(at(first_due[e.index]), done) * 1e3;
          } else {
            queue.push({e.due + kFollowUpSeconds, kFollow, e.index});
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  service.drain();

  MixedRun all;
  for (MixedRun& run : runs) {
    auto append = [](auto& to, const auto& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(all.latency_us, run.latency_us);
    append(all.cold_us, run.cold_us);
    append(all.lateness_us, run.lateness_us);
    append(all.service_us, run.service_us);
    all.attempted += run.attempted;
    all.failed += run.failed;
  }
  for (double ms : tuned_ms) {
    if (ms >= 0) all.tuned_ms.push_back(ms);
  }
  return all;
}

/// The generators' time inside get_executable, requests due in the run.
double busy_seconds(const MixedRun& run) {
  double us = 0;
  for (double v : run.service_us) us += v;
  return us * 1e-6;
}

serve::ServeOptions mixed_options(std::uint64_t seed) {
  serve::ServeOptions options;
  options.tune = paper_options(seed);
  return options;
}

/// Fill the executable-plan cache before timing: one request per
/// prewarmed signature, coldest first, so the hottest end up cached.
void fill_plan_cache(serve::TuningService& service, const Setup& s) {
  for (auto it = s.prewarmed.rbegin(); it != s.prewarmed.rend(); ++it) {
    (void)service.get_executable(it->problem, it->device);
  }
}

}  // namespace

void mixed_round(const Setup& s, const RunConfig& c, double seconds,
                 std::size_t round, MixedSamples& samples, Outcome& out) {
  auto registry = registry_from(s);
  serve::TuningService service(*registry, mixed_options(c.seed));
  fill_plan_cache(service, s);
  const std::size_t from = s.fresh.size() * round / kRounds;
  const std::size_t to = s.fresh.size() * (round + 1) / kRounds;
  const std::vector<Target> fresh(s.fresh.begin() + from,
                                  s.fresh.begin() + to);
  Errors errors;
  const MixedRun run = open_loop(service, s.prewarmed, fresh, seconds,
                                 c.seed + round, errors);
  check_resilience(service.snapshot(), "serve_mixed", errors);
  errors.flush_into(out);
  out.attempted += run.attempted;
  out.failed += run.failed;
  for (const auto& [t, us] : run.latency_us) {
    samples.latency.emplace_back(t + round * kRoundOffset, us);
  }
  auto append = [](std::vector<double>& to, const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  append(samples.cold_us, run.cold_us);
  append(samples.tuned_ms, run.tuned_ms);
  append(samples.lateness_us, run.lateness_us);
  samples.requests += run.latency_us.size();
  samples.first_sights += run.cold_us.size();
  samples.busy_seconds += busy_seconds(run);
  samples.wall_seconds += kClients * seconds;
}

void finish_mixed(const MixedSamples& samples, Outcome& out) {
  const Percentiles cold = summarize(samples.cold_us);
  out.report.set("mixed_p50_us",
                 windowed_percentile(samples.latency, kMixedWindow, 50),
                 "us");
  out.report.set("time_to_tuned_p50_ms", median(samples.tuned_ms), "ms");
  out.notes.push_back(count_note("serve_mixed latency",
                                 summarize(values(samples.latency))) +
                      " (pooled; reported per " + fmt(kMixedWindow, 1) +
                      " s window)");
  out.notes.push_back(count_note("serve_mixed first sights", cold));
  out.notes.push_back(
      "serve_mixed traffic: " + std::to_string(samples.requests) +
      " requests, " +
      fmt(100.0 * static_cast<double>(samples.first_sights) /
              static_cast<double>(std::max<std::size_t>(samples.requests, 1)),
          2) +
      "% first sights, generators busy " +
      fmt(100.0 * samples.busy_seconds /
              std::max(samples.wall_seconds, 1e-9),
          2) +
      "% of their time");
  out.notes.push_back("serve_mixed: time to tuned n=" +
                      std::to_string(samples.tuned_ms.size()) +
                      ", generator lateness p99 " +
                      fmt(percentile(samples.lateness_us, 99)) + " us");
}

namespace {

/// Time `f` into `spans` when tracing, else just run it.
template <typename F>
decltype(auto) maybe_time(Spans* spans, const std::string& name, F&& f) {
  if (spans) return spans->time(name, std::forward<F>(f));
  return f();
}

/// One mirror pass over `ops` requests on a fresh copy of the prewarmed
/// state: the calls get_executable makes, in its order, timed into
/// `spans` when given.  Returns the pass's wall seconds (plan-cache fill
/// excluded).
double mirror_pass(const Setup& s, const RunConfig& c, std::size_t ops,
                   Spans* spans, Errors& errors) {
  auto registry = registry_from(s);
  const serve::ServeOptions options = mixed_options(c.seed);
  serve::PlanCache cache(options.plan_cache_capacity);
  Spans* timing = nullptr;
  auto serve_one = [&](const Target& t) {
    const std::string sig = maybe_time(timing, "serve.signature", [&] {
      return serve::signature(t.problem, t.device);
    });
    serve::PlanEntry entry;
    if (!maybe_time(timing, "serve.lookup",
                    [&] { return registry->lookup(sig, &entry); })) {
      entry = maybe_time(timing, "serve.fallback", [&] {
        return serve::fallback_plan(t.problem, t.device, options.tune);
      });
      maybe_time(timing, "serve.publish",
                 [&] { return registry->publish(sig, entry); });
    }
    maybe_time(timing, "serve.record_demand",
               [&] { registry->record_demand(sig, entry.modeled_us); });
    std::shared_ptr<const serve::ExecutablePlan> cached =
        maybe_time(timing, "plancache.find", [&] { return cache.find(sig); });
    if (!cached || !(cached->entry == entry)) {
      serve::ExecutablePlan fresh;
      fresh.entry = entry;
      fresh.plan = maybe_time(timing, "serve.materialize", [&] {
        return serve::materialize(t.problem, entry, options.tune);
      });
      maybe_time(timing, "plancache.insert",
                 [&] { return cache.insert(sig, std::move(fresh)); });
    }
    if (sig != t.signature) errors.add("serve_mixed: mirror signature");
  };
  for (auto it = s.prewarmed.rbegin(); it != s.prewarmed.rend(); ++it) {
    serve_one(*it);
  }
  timing = spans;
  const Zipf zipf(s.prewarmed.size(), kZipfS);
  bc::Rng rng(c.seed * 0x2545f4914f6cdd1dull);
  const std::size_t fresh_every =
      static_cast<std::size_t>(kMixedRate / kNewShapeRate);
  std::size_t next_fresh = 0;
  const Clock::time_point begin = Clock::now();
  for (std::size_t op = 1; op <= ops; ++op) {
    if (op % fresh_every == 0 && next_fresh < s.fresh_mirror.size()) {
      serve_one(s.fresh_mirror[next_fresh++]);
    } else {
      serve_one(s.prewarmed[zipf(rng)]);
    }
  }
  return seconds_between(begin, Clock::now());
}

/// How many mirror requests fit in about `seconds` (one untimed probe
/// pass of a thousand requests sizes it).
std::size_t mirror_ops(const Setup& s, const RunConfig& c, double seconds) {
  Errors ignored;
  const std::size_t probe = 1000;
  const double wall = mirror_pass(s, c, probe, nullptr, ignored);
  return std::max<std::size_t>(
      probe, static_cast<std::size_t>(seconds / wall * probe));
}

}  // namespace

/// The traced mixed run: the open loop through get_executable (counters
/// from the service), then the same kind of traffic through the public
/// calls get_executable makes, each timed.
void mixed_trace(const Setup& s, const RunConfig& c, Outcome& out) {
  const double half = c.seconds / 2;
  Errors errors;
  auto registry = registry_from(s);
  serve::TuningService service(*registry, mixed_options(c.seed));
  fill_plan_cache(service, s);
  const MixedRun run =
      open_loop(service, s.prewarmed, s.fresh, half, c.seed, errors);
  const serve::ServeStats st = service.snapshot();
  check_resilience(st, "serve_mixed", errors);
  out.attempted += run.attempted;
  out.failed += run.failed;

  // Mirror: the public calls get_executable makes, over the same kind of
  // traffic (the mirror's own unseen shapes at the open loop's share),
  // untimed and with every call timed, in the order untimed, timed,
  // timed, untimed; the ratio of the two sums is the tracing overhead.
  const std::size_t ops = mirror_ops(s, c, half / 4);
  Spans sp;
  double untraced_wall = mirror_pass(s, c, ops, nullptr, errors);
  double mirror_wall = mirror_pass(s, c, ops, &sp, errors);
  mirror_wall += mirror_pass(s, c, ops, &sp, errors);
  untraced_wall += mirror_pass(s, c, ops, nullptr, errors);
  errors.flush_into(out);
  out.attempted += 4 * ops;

  // serve.signature_us, serve.lookup_us and serve.record_demand_us come
  // from warm_trace; the mirror's own are covered time below.
  Report& r = out.report;
  r.set("serve.fallback_us", sp.mean_us("serve.fallback"), "us");
  r.set("serve.publish_us", sp.mean_us("serve.publish"), "us");
  r.set("serve.materialize_us", sp.mean_us("serve.materialize"), "us");
  const double lookups =
      static_cast<double>(st.registry_hits + st.registry_misses);
  r.set("serve.hit_ratio",
        lookups > 0 ? static_cast<double>(st.registry_hits) / lookups : 0,
        "ratio");
  const double tune_ms =
      st.tunes_completed
          ? st.tune_seconds_total * 1e3 /
                static_cast<double>(st.tunes_completed)
          : 0;
  r.set("serve.tune_ms", tune_ms, "ms");
  // Time to tuned beyond the tune itself: queueing plus the follow-up
  // cadence (both means, so the difference is consistent).
  double tuned_total = 0;
  for (double ms : run.tuned_ms) tuned_total += ms;
  r.set("serve.tune_wait_ms",
        run.tuned_ms.empty()
            ? 0
            : tuned_total / static_cast<double>(run.tuned_ms.size()) -
                  tune_ms,
        "ms");
  r.set("serve.tunes_started", static_cast<double>(st.tunes_started),
        "count");
  r.set("serve.rejected", static_cast<double>(st.rejected), "count");
  r.set("serve.upgrades", static_cast<double>(st.upgrades), "count");
  const double cache_lookups = static_cast<double>(
      st.plan_cache_hits + st.plan_cache_stale + st.plan_cache_misses);
  r.set("plancache.hit_ratio",
        cache_lookups > 0
            ? static_cast<double>(st.plan_cache_hits) / cache_lookups
            : 0,
        "ratio");
  r.set("plancache.stale", static_cast<double>(st.plan_cache_stale),
        "count");
  r.set("plancache.evictions", static_cast<double>(st.plan_cache_evictions),
        "count");
  r.set("gen.lateness_p99_us", percentile(run.lateness_us, 99), "us");
  // The traffic actually offered (README.md, "Traffic model").
  r.set("gen.first_sight_share",
        static_cast<double>(run.cold_us.size()) /
            static_cast<double>(run.latency_us.size()),
        "ratio");
  r.set("gen.busy_share", busy_seconds(run) / (kClients * half), "ratio");
  // Tails: too unsteady on a shared host to bound (see README.md).
  r.set("mixed_p99_us", windowed_percentile(run.latency_us, kMixedWindow, 99),
        "us");
  r.set("cold_p90_us", percentile(run.cold_us, 90), "us");
  double covered = 0;
  for (const char* name :
       {"serve.signature", "serve.lookup", "serve.fallback", "serve.publish",
        "serve.record_demand", "plancache.find", "serve.materialize",
        "plancache.insert"}) {
    covered += sp.seconds(name);
  }
  r.set("serve_mixed.unattributed_share", 1.0 - covered / mirror_wall,
        "ratio");
  r.set("serve_mixed.tracing_overhead_share",
        mirror_wall / untraced_wall - 1.0, "ratio");
}

}  // namespace perfbench::detail
