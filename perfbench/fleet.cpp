#include "common.hpp"

#include <filesystem>
#include <functional>
#include <thread>
#include <unistd.h>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "serve/remote/planserver.hpp"
#include "serve/remote/remoteregistry.hpp"
#include "serve/remote/wire.hpp"

namespace perfbench::detail {

namespace remote = bc::serve::remote;

namespace {

// ---------------------------------------------------------------------------
// remote_fleet: two in-process PlanServer replicas on Unix sockets.

class Fleet {
 public:
  Fleet(const Setup& s, const std::string& dir, const std::string& tag) {
    for (int r = 0; r < 2; ++r) {
      registries_[r] = registry_from(s);
      paths_[r] = dir + "/pb-" + std::to_string(::getpid()) + "-" + tag +
                  (r ? "-b" : "-a") + ".sock";
      servers_[r] = std::make_unique<remote::PlanServer>(*registries_[r]);
      servers_[r]->listen_unix(paths_[r]);
      servers_[r]->start();
      endpoints_.push_back(bc::net::parse_endpoint("unix:" + paths_[r]));
    }
  }
  ~Fleet() {
    for (int r = 0; r < 2; ++r) {
      servers_[r]->stop();
      std::error_code ignored;
      std::filesystem::remove(paths_[r], ignored);
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  const std::vector<bc::net::Endpoint>& endpoints() const {
    return endpoints_;
  }
  remote::PlanServer& server(int r) { return *servers_[r]; }
  serve::PlanRegistry& registry(int r) { return *registries_[r]; }

 private:
  std::unique_ptr<serve::PlanRegistry> registries_[2];
  std::string paths_[2];
  std::unique_ptr<remote::PlanServer> servers_[2];
  std::vector<bc::net::Endpoint> endpoints_;
};

remote::RemoteRegistryOptions client_options() {
  remote::RemoteRegistryOptions options;
  options.timeout = kClientTimeout;
  options.connect_timeout = kClientTimeout;
  return options;
}

struct FleetOp {
  double start = 0;  // seconds from the run start
  float us = 0;
  bool get = false;
};

struct FleetRun {
  std::vector<FleetOp> ops;
  double stop_begin = 0;
  double stop_end = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t failovers = 0;
  std::size_t unavailable = 0;
  std::size_t reconnect_probes = 0;
  std::size_t server_requests = 0;
  std::vector<double> put_us;
  std::vector<double> sync_ms;
};

/// kClients closed-loop clients, each with its own RemoteRegistry over
/// both replicas: mostly Zipf GETs of prewarmed signatures, a kPutShare
/// of PUTs (each followed by a GET of what was put) and, on client 0, a
/// SYNC every kSyncPeriod.  With `stop_primary`, the primary is stopped
/// halfway through the run.  `mirror` (when set) replaces each GET with
/// the traced sequence.
using GetMirror = std::function<void(std::size_t client, const std::string& sig,
                                     const serve::PlanEntry& expected)>;

FleetRun fleet_loop(const Setup& s, Fleet& fleet, double seconds,
                    std::uint64_t seed, bool stop_primary, Errors& errors,
                    const GetMirror& mirror = nullptr) {
  std::vector<serve::PlanEntry> expected(s.prewarmed.size());
  for (std::size_t i = 0; i < s.prewarmed.size(); ++i) {
    if (!fleet.registry(1).peek(s.prewarmed[i].signature, &expected[i])) {
      errors.add("remote_fleet: prewarmed signature missing on the server");
    }
  }
  const Zipf zipf(s.prewarmed.size(), kZipfS);
  std::vector<FleetRun> runs(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t client = 0; client < kClients; ++client) {
    threads.emplace_back([&, client] {
      FleetRun& run = runs[client];
      remote::RemoteRegistry link(fleet.endpoints(), client_options());
      std::unique_ptr<serve::PlanRegistry> local;
      if (client == 0) local = registry_from(s);
      bc::Rng rng(seed * 0x9e3779b97f4a7c15ull + client);
      std::size_t puts = 0;
      double next_sync = kSyncPeriod;
      std::size_t pending_get = s.put_shapes.size();  // none
      while (true) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        const double offset = seconds_between(start, t0);
        bool ok = true;
        bool get = false;
        if (local && offset >= next_sync) {
          next_sync += kSyncPeriod;
          ok = link.sync(*local) == serve::RemoteWrite::kOk;
          run.sync_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        } else if (pending_get == s.put_shapes.size() &&
                   rng.uniform() < kPutShare) {
          const std::size_t k =
              client * kPutShapesPerClient + puts++ % kPutShapesPerClient;
          const serve::RemoteWrite w =
              link.publish(s.put_shapes[k].signature, s.put_entries[k]);
          ok = w == serve::RemoteWrite::kOk ||
               w == serve::RemoteWrite::kRejected;
          run.put_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
          pending_get = k;
        } else {
          get = true;
          const bool own_put = pending_get < s.put_shapes.size();
          const std::size_t i = own_put ? pending_get : zipf(rng);
          const std::string& sig = own_put ? s.put_shapes[i].signature
                                           : s.prewarmed[i].signature;
          const serve::PlanEntry& want =
              own_put ? s.put_entries[i] : expected[i];
          pending_get = s.put_shapes.size();
          if (mirror) {
            mirror(client, sig, want);
          } else {
            serve::PlanEntry entry;
            ok = link.fetch(sig, &entry) == serve::RemoteStatus::kHit &&
                 entry == want;
          }
        }
        const Clock::time_point t1 = Clock::now();
        ++run.attempted;
        if (!ok) {
          ++run.failed;
          errors.add("remote_fleet: operation failed or answered wrongly");
        }
        run.ops.push_back({offset,
                           static_cast<float>(seconds_between(t0, t1) * 1e6),
                           get});
      }
      const remote::RemoteRegistryStats st = link.stats();
      run.failovers = st.failovers;
      run.unavailable = st.unavailable;
      run.reconnect_probes = st.reconnect_probes;
    });
  }
  FleetRun all;
  if (stop_primary) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds / 2)));
    all.stop_begin = seconds_between(start, Clock::now());
    fleet.server(0).stop();
    all.stop_end = seconds_between(start, Clock::now());
  } else {
    all.stop_begin = all.stop_end = seconds + 1;
  }
  for (auto& th : threads) th.join();
  for (FleetRun& run : runs) {
    all.ops.insert(all.ops.end(), run.ops.begin(), run.ops.end());
    all.put_us.insert(all.put_us.end(), run.put_us.begin(), run.put_us.end());
    all.sync_ms.insert(all.sync_ms.end(), run.sync_ms.begin(),
                       run.sync_ms.end());
    all.attempted += run.attempted;
    all.failed += run.failed;
    all.failovers += run.failovers;
    all.unavailable += run.unavailable;
    all.reconnect_probes += run.reconnect_probes;
  }
  all.server_requests =
      fleet.server(0).stats().requests + fleet.server(1).stats().requests;
  return all;
}

/// GET latencies before the primary stopped and after it had stopped.
std::pair<Timed, Timed> split_gets(const FleetRun& run) {
  Timed up;
  Timed down;
  for (const FleetOp& op : run.ops) {
    if (!op.get) continue;
    if (op.start < run.stop_begin) up.emplace_back(op.start, op.us);
    if (op.start >= run.stop_end) down.emplace_back(op.start, op.us);
  }
  return {up, down};
}

/// The share of a run's operations that were PUTs.
double put_share(const FleetRun& run) {
  return static_cast<double>(run.put_us.size()) /
         static_cast<double>(std::max<std::size_t>(run.ops.size(), 1));
}

}  // namespace

void fleet_round(const Setup& s, const RunConfig& c, double seconds,
                 std::size_t round, FleetSamples& samples, Outcome& out) {
  Errors errors;
  Fleet fleet(s, c.socket_dir, "e2e");
  const FleetRun run =
      fleet_loop(s, fleet, seconds, c.seed + round, true, errors);
  errors.flush_into(out);
  out.attempted += run.attempted;
  out.failed += run.failed;
  const auto [up, down] = split_gets(run);
  for (const auto& [t, us] : up) {
    samples.up.emplace_back(t + round * kRoundOffset, us);
  }
  for (const auto& [t, us] : down) {
    samples.down.emplace_back(t + round * kRoundOffset, us);
  }
  out.notes.push_back("remote_fleet: primary stopped at " +
                      fmt(run.stop_begin, 3) + " s, stop took " +
                      fmt((run.stop_end - run.stop_begin) * 1e3, 2) +
                      " ms; " + std::to_string(run.ops.size()) + " ops, " +
                      fmt(100 * put_share(run), 2) + "% PUTs, " +
                      std::to_string(run.sync_ms.size()) + " SYNCs");
}

void finish_fleet(const FleetSamples& samples, Outcome& out) {
  out.report.set("remote_get_p50_us",
                 windowed_percentile(samples.up, kFleetWindow, 50), "us");
  out.notes.push_back(count_note("remote_fleet GET, both up",
                                 summarize(values(samples.up))));
  out.notes.push_back(count_note("remote_fleet GET, one down",
                                 summarize(values(samples.down))));
}

/// The traced fleet run: first the traced GET sequence with both
/// replicas up, then the untraced run with its primary stop (counters
/// from RemoteRegistry::stats and PlanServer::stats).
void fleet_trace(const Setup& s, const RunConfig& c, Outcome& out) {
  Errors errors;
  const double half = c.seconds / 2;
  std::vector<Spans> spans(kClients);
  FleetRun mirror_run;
  {
    Fleet fleet(s, c.socket_dir, "trace");
    std::vector<std::unique_ptr<bc::net::Client>> pingers;
    for (std::size_t i = 0; i < kClients; ++i) {
      pingers.push_back(
          std::make_unique<bc::net::Client>(fleet.endpoints()[0]));
      pingers.back()->connect();
    }
    std::vector<std::unique_ptr<remote::RemoteRegistry>> links;
    for (std::size_t i = 0; i < kClients; ++i) {
      links.push_back(
          std::make_unique<remote::RemoteRegistry>(fleet.endpoints(),
                                                   client_options()));
    }
    const GetMirror traced_get = [&](std::size_t client,
                                     const std::string& sig,
                                     const serve::PlanEntry& want) {
      Spans& sp = spans[client];
      serve::PlanEntry entry;
      const serve::RemoteStatus st = sp.time(
          "remote.get", [&] { return links[client]->fetch(sig, &entry); });
      if (st != serve::RemoteStatus::kHit || !(entry == want)) {
        errors.add("remote_fleet: traced GET missed " + sig);
      }
      const std::string text = sp.time(
          "wire.encode", [&] { return remote::encode_plan(sig, want); });
      std::string decoded_sig;
      serve::PlanEntry decoded;
      sp.time("wire.decode",
              [&] { remote::decode_plan(text, &decoded_sig, &decoded); });
      sp.time("net.frame_encode", [&] {
        return bc::net::encode_frame({bc::net::Op::kGetPlan, sig});
      });
      const bc::net::Frame pong = sp.time("net.ping", [&] {
        return pingers[client]->request({bc::net::Op::kPing, "p"});
      });
      if (pong.op != bc::net::Op::kOk || !(decoded == want)) {
        errors.add("remote_fleet: traced ping or wire round trip failed");
      }
    };
    mirror_run = fleet_loop(s, fleet, half, c.seed, false, errors,
                            traced_get);
  }
  Fleet fleet(s, c.socket_dir, "untraced");
  const FleetRun run = fleet_loop(s, fleet, half, c.seed, true, errors);
  errors.flush_into(out);
  out.attempted += mirror_run.attempted + run.attempted;
  out.failed += mirror_run.failed + run.failed;

  Spans all;
  for (const Spans& sp : spans) all.merge(sp);
  auto mean = [](const std::vector<double>& v) {
    double total = 0;
    for (double x : v) total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
  };
  Report& r = out.report;
  r.set("net.ping_us", all.mean_us("net.ping"), "us");
  r.set("net.frame_encode_us", all.mean_us("net.frame_encode"), "us");
  r.set("wire.encode_us", all.mean_us("wire.encode"), "us");
  r.set("wire.decode_us", all.mean_us("wire.decode"), "us");
  r.set("remote.get_unattributed_us",
        all.mean_us("remote.get") - all.mean_us("net.ping") -
            all.mean_us("wire.decode"),
        "us");
  r.set("remote.put_us", mean(run.put_us), "us");
  r.set("remote.sync_ms", mean(run.sync_ms), "ms");
  r.set("remote.put_share", put_share(run), "ratio");
  r.set("planserver.requests", static_cast<double>(run.server_requests),
        "count");
  r.set("remote.failovers", static_cast<double>(run.failovers), "count");
  r.set("remote.unavailable", static_cast<double>(run.unavailable), "count");
  r.set("remote.reconnect_probes", static_cast<double>(run.reconnect_probes),
        "count");

  double busy = 0;
  for (const FleetOp& op : mirror_run.ops) busy += op.us * 1e-6;
  double covered = 0;
  for (const char* name : {"remote.get", "wire.encode", "wire.decode",
                           "net.frame_encode", "net.ping"}) {
    covered += all.seconds(name);
  }
  // PUT and SYNC ops of the mirror run are covered by their own timing.
  for (const FleetOp& op : mirror_run.ops) {
    if (!op.get) covered += op.us * 1e-6;
  }
  r.set("remote_fleet.unattributed_share", 1.0 - covered / busy, "ratio");
  const auto [up, down] = split_gets(run);
  r.set("remote_fleet.tracing_overhead_share",
        all.mean_us("remote.get") / std::max(mean(values(up)), 1e-9) - 1.0,
        "ratio");
  // Tails: too unsteady on a shared host to bound (see README.md).
  r.set("remote_get_p99_us", windowed_percentile(up, kFleetWindow, 99), "us");
  r.set("one_down_get_p99_us", windowed_percentile(down, kFleetWindow, 99),
        "us");
}

}  // namespace perfbench::detail
