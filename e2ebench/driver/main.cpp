// e2e_driver: native closed-loop load generator of the end-to-end
// benchmark (see e2ebench/README.md).
//
// Spawns the real gdelt_serve / gdelt_router processes over a converted
// database, drives one workload through their TCP front for a fixed time
// with every loop closed, checks every response byte-for-byte against the
// in-process renderer, and prints the result as one JSON line:
//
//   e2e_driver --workload analyst --seed 1 --seconds 10 --trace 0
//              --bin <dir with gdelt_serve, gdelt_router> --db <db dir>
//              --archives <raw dir for ingest> --days <days in dataset>
//              --work <scratch dir for server logs>
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice on fresh deployments, untraced and with "trace":true, then
// replays the request sequences in-process through each layer, and
// prints the per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/database.hpp"
#include "netio.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/render.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace serve = gdelt::serve;
using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  Workload workload = Workload::kAnalyst;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin;
  std::string db;
  std::string archives;
  std::string work;
  int days = 0;
  int setups = 3;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_driver: %s\n", what.c_str());
  std::exit(1);
}

serve::LineClient Connect(int port) {
  auto c = serve::LineClient::Connect("127.0.0.1", port);
  if (!c.ok()) Die("connect: " + c.status().ToString());
  return std::move(*c);
}

/// Everything one client connection saw.
struct ConnLog {
  struct Sample {
    int key;
    double ms;
    bool ok;
    bool cached;
    bool in_window;
    double at_s;  ///< completion time from the window start
  };
  std::vector<Sample> samples;
  /// First ok response line per key; later responses must carry the
  /// same text bytes.
  std::unordered_map<int, std::string> first;
  std::unordered_map<int, std::uint64_t> ok_responses;
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t inconsistent = 0;
  std::vector<double> pages;   ///< burst latency, in-window
  std::vector<double> wire;    ///< burst latency minus server wall_ms
  std::vector<double> ingest;  ///< send -> epoch reply
  bool traced = false;
  StageTotals stages;

  /// Records one query response; returns its server wall_ms.
  double Record(const Catalog& catalog, int key, const std::string& line,
                double ms, bool in_window, double at_s) {
    const bool ok = line.compare(0, 1, "{") == 0 &&
                    line.find("\"ok\":true") != std::string::npos &&
                    !RawTextOf(line).empty();
    if (!ok) {
      ++errors;
      if (errors <= 3) std::fprintf(stderr, "error response: %s\n", line.c_str());
      samples.push_back({key, ms, false, false, in_window, at_s});
      return 0;
    }
    const auto [it, inserted] = first.emplace(key, line);
    if (!inserted && RawTextOf(it->second) != RawTextOf(line)) ++inconsistent;
    ++ok_responses[key];
    samples.push_back({key, ms, true, TrueField(line, "cached"), in_window, at_s});
    if (traced) stages.Add(line, catalog.batch[static_cast<std::size_t>(key)]);
    return NumberField(line, "wall_ms", 0);
  }

  /// Sends `burst` (keys written in one write) and reads every reply.
  void Burst(serve::LineClient& c, const Catalog& catalog,
             const std::vector<std::string>& lines, const std::vector<int>& keys,
             Clock::time_point t_start, Clock::time_point t_end) {
    std::string burst;
    for (const int k : keys) {
      burst += lines[static_cast<std::size_t>(k)];
      burst += '\n';
    }
    attempted += keys.size();
    const auto t0 = Clock::now();
    if (!c.Send(burst).ok()) Die("send failed");
    double wall_sum = 0;
    Clock::time_point t1 = t0;
    for (const int k : keys) {
      auto reply = c.ReadLine();
      if (!reply.ok()) Die("read failed: " + reply.status().ToString());
      t1 = Clock::now();
      wall_sum += Record(catalog, k, *reply, MsBetween(t0, t1), t1 <= t_end,
                         MsBetween(t_start, t1) / 1e3);
    }
    if (t1 <= t_end) {
      pages.push_back(MsBetween(t0, t1));
      wire.push_back(MsBetween(t0, t1) - wall_sum);
    }
  }
};

/// Sends one ingest to every endpoint at once; returns the latency from
/// the send to the last reply, or -1 if any reply is not the expected epoch.
double Ingest(std::vector<serve::LineClient>& clients, const ArchivePair& pair,
              std::uint64_t expect_epoch) {
  const std::string line = IngestLine(pair);
  const auto t0 = Clock::now();
  for (auto& c : clients) {
    if (!c.Send(line).ok()) Die("ingest send failed");
  }
  bool good = true;
  for (auto& c : clients) {
    auto reply = c.ReadLine();
    if (!reply.ok()) Die("ingest read failed");
    const std::string want = "\"ok\":true,\"epoch\":" + std::to_string(expect_epoch) + "}";
    if (reply->size() < want.size() ||
        reply->compare(reply->size() - want.size(), want.size(), want) != 0) {
      std::fprintf(stderr, "unexpected ingest reply (want epoch %llu): %s\n",
                   static_cast<unsigned long long>(expect_epoch), reply->c_str());
      good = false;
    }
  }
  return good ? MsBetween(t0, Clock::now()) : -1;
}

/// The running servers of one workload.
struct Deployment {
  std::vector<ServerProcess> procs;  ///< shards first, router last
  int front_port = 0;                ///< where clients connect
  std::vector<int> ingest_ports;     ///< every gdelt_serve
  std::vector<int> all_ports;
  double setup_s = 0;
  std::uint64_t epoch = 0;  ///< after the warm-up ingest
};

Deployment Deploy(const Options& o, const Plan& plan, ConnLog& warm_log) {
  static int deployment = 0;
  const std::string log =
      o.work + "/server-" + std::to_string(deployment++) + ".log";
  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  Deployment d;
  const auto t0 = Clock::now();
  const int shards = o.workload == Workload::kAnalyst ? 2 : 1;
  std::vector<std::string> argv = {o.bin + "/gdelt_serve", "--db", o.db,
                                   "--port", "0", "--follow"};
  // The servers' morsel pools together take half the machine: each
  // query's caller thread drains its own morsels too, and the router and
  // the driver need CPU of their own, so wider pools only make the result
  // depend on the host's other load.
  std::vector<std::string> env = {
      "OMP_NUM_THREADS=" + std::to_string(std::max(1L, nproc / (2 * shards)))};
  if (o.workload == Workload::kAnalyst) argv.insert(argv.end(), {"--cache", "0"});
  for (int s = 0; s < shards; ++s) {
    auto p = ServerProcess::Spawn(argv, env, log);
    if (!p.ok()) Die(p.status().ToString());
    d.procs.push_back(std::move(*p));
  }
  for (auto& p : d.procs) {
    auto port = p.WaitReady(120'000);
    if (!port.ok()) Die("gdelt_serve: " + port.status().ToString() + " (see " + log + ")");
    d.ingest_ports.push_back(*port);
  }
  d.all_ports = d.ingest_ports;
  d.front_port = d.ingest_ports[0];
  if (o.workload == Workload::kAnalyst) {
    std::string topology;
    for (const int port : d.ingest_ports) {
      topology += (topology.empty() ? "" : ";") + std::string("127.0.0.1:") +
                  std::to_string(port);
    }
    auto p = ServerProcess::Spawn(
        {o.bin + "/gdelt_router", "--shards", topology, "--port", "0"}, {}, log);
    if (!p.ok()) Die(p.status().ToString());
    d.procs.push_back(std::move(*p));
    auto port = d.procs.back().WaitReady(60'000);
    if (!port.ok()) Die("gdelt_router: " + port.status().ToString());
    d.front_port = *port;
    d.all_ports.push_back(*port);
  }
  // Warm-up: one request per kind the workload uses, the ingest included,
  // so lazy work (the distinct-source CSR, first-touch of the tables, the
  // first delta snapshot) is paid here and not inside the window.
  std::vector<serve::LineClient> writers;
  for (const int port : d.ingest_ports) writers.push_back(Connect(port));
  if (Ingest(writers, plan.ingests[0], 1) < 0) {
    Die("warm-up ingest failed");
  }
  d.epoch = 1;
  serve::LineClient front = Connect(d.front_port);
  for (const int key : plan.warmup) {
    warm_log.Burst(front, plan.catalog, plan.catalog.lines, {key}, Clock::time_point{},
                   Clock::time_point{});
  }
  d.setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return d;
}

/// Sequential ingests before the window: the write
/// path measured on an otherwise idle deployment.
void ProbeIngests(const Plan& plan, Deployment& d, ConnLog& log) {
  std::vector<serve::LineClient> writers;
  for (const int port : d.ingest_ports) writers.push_back(Connect(port));
  for (int i = 1; i <= kProbeIngests && i < static_cast<int>(plan.ingests.size());
       ++i) {
    ++log.attempted;
    const double ms = Ingest(writers, plan.ingests[static_cast<std::size_t>(i)],
                             ++d.epoch);
    if (ms < 0) {
      ++log.errors;
    } else {
      log.ingest.push_back(ms);
    }
  }
}

/// One closed-loop measured window. Returns one log per connection.
std::vector<ConnLog> RunWindow(const Options& o, const Plan& plan,
                               const Deployment& d, double seconds, bool traced) {
  std::vector<std::string> traced_lines;
  if (traced) {
    for (const std::string& l : plan.catalog.lines) traced_lines.push_back(Traced(l));
  }
  const std::vector<std::string>& lines = traced ? traced_lines : plan.catalog.lines;
  const Catalog& catalog = plan.catalog;

  const int connections = o.workload == Workload::kDashboard ? kPageConnections + 1 : 1;
  std::vector<ConnLog> logs(static_cast<std::size_t>(connections));
  std::vector<serve::LineClient> clients;
  for (int c = 0; c < connections; ++c) clients.push_back(Connect(d.front_port));
  for (auto& l : logs) l.traced = traced;

  const auto t_start = Clock::now() + std::chrono::milliseconds(50);
  const auto t_end =
      t_start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  const auto loop = [&](int c, auto&& next_keys) {
    std::this_thread::sleep_until(t_start);
    auto& client = clients[static_cast<std::size_t>(c)];
    auto& log = logs[static_cast<std::size_t>(c)];
    for (std::uint64_t i = 0; Clock::now() < t_end; ++i) {
      log.Burst(client, catalog, lines, next_keys(i), t_start, t_end);
    }
  };
  switch (o.workload) {
    case Workload::kAnalyst:
      threads.emplace_back(loop, 0, [&](std::uint64_t i) {
        return std::vector<int>{plan.analyst_cycle[i % plan.analyst_cycle.size()]};
      });
      break;
    case Workload::kDashboard:
      for (int c = 0; c < kPageConnections; ++c) {
        threads.emplace_back([&, c] {
          Rng rng = PageRng(plan, c);
          loop(c, [&](std::uint64_t) { return NextPage(plan, rng); });
        });
      }
      threads.emplace_back(loop, kPageConnections, [&](std::uint64_t i) {
        return std::vector<int>{plan.batch_walk[i % plan.batch_walk.size()]};
      });
      break;
  }
  for (auto& t : threads) t.join();
  return logs;
}

/// Counters from every process's `metrics` verb, summed.
struct ServerCounters {
  double rejected = 0;
  double timeouts = 0;
  double evicted_stale = 0;
  double shard_failures = 0;
};

ServerCounters ReadCounters(const Deployment& d) {
  ServerCounters out;
  for (const int port : d.all_ports) {
    serve::LineClient c = Connect(port);
    auto reply = c.RoundTrip("{\"query\":\"metrics\"}");
    if (!reply.ok()) Die("metrics verb failed");
    auto json = serve::JsonValue::Parse(*reply);
    const serve::JsonValue* m = json.ok() ? json->Find("metrics") : nullptr;
    if (m == nullptr) Die("bad metrics reply: " + *reply);
    const auto num = [m](const char* name) {
      const serve::JsonValue* v = m->Find(name);
      return v == nullptr ? 0.0 : v->AsNumber();
    };
    out.rejected += num("rejected_overloaded");
    out.timeouts += num("timeouts");
    out.evicted_stale += num("cache_evicted_stale");
    out.shard_failures += num("shard_failures");
  }
  return out;
}

double MemMiB(const Deployment& d) {
  double kib = 0;
  for (const auto& p : d.procs) {
    const long pss = PssKiB(p.pid());
    if (pss < 0) Die("cannot read smaps_rollup of a server");
    kib += static_cast<double>(pss);
  }
  return kib / 1024.0;
}

/// Compares every distinct response text against the single-node renderer
/// over the same database; returns the number of failed responses.
std::uint64_t CheckResponses(const gdelt::engine::Database& db,
                             const Catalog& catalog,
                             const std::vector<const ConnLog*>& logs) {
  std::uint64_t failed = 0;
  std::map<int, std::string> first;
  std::map<int, std::uint64_t> count;
  std::map<int, bool> bad;
  for (const ConnLog* log : logs) {
    failed += log->errors + log->inconsistent;
    for (const auto& [key, line] : log->first) {
      count[key] += log->ok_responses.at(key);
      const auto [it, inserted] = first.emplace(key, line);
      if (!inserted && RawTextOf(it->second) != RawTextOf(line)) bad[key] = true;
    }
  }
  std::vector<int> keys;
  for (const auto& [key, line] : first) keys.push_back(key);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const auto worker = [&] {
    for (std::size_t i = next++; i < keys.size(); i = next++) {
      const int key = keys[i];
      const std::string& line = catalog.lines[static_cast<std::size_t>(key)];
      auto request = serve::ParseRequest(line);
      auto reference = request.ok() ? serve::RenderQuery(db, *request)
                                    : gdelt::Result<serve::RenderedQuery>(
                                          request.status());
      auto reply = serve::JsonValue::Parse(first.at(key));
      const serve::JsonValue* text = reply.ok() ? reply->Find("text") : nullptr;
      if (!reference.ok() || text == nullptr || text->AsString() != reference->text) {
        std::lock_guard<std::mutex> lock(mu);
        if (!bad[key]) {
          std::fprintf(stderr, "response differs from the reference render: %s\n",
                       line.c_str());
        }
        bad[key] = true;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  for (const auto& [key, is_bad] : bad) {
    if (is_bad) failed += count[key];
  }
  return failed;
}

struct Loaded {
  gdelt::engine::Database db;
  double load_ms = 0;
  double index_ms = 0;
};

Loaded LoadDb(const std::string& dir) {
  const auto t0 = Clock::now();
  auto db = gdelt::engine::Database::Load(dir);
  if (!db.ok()) Die("load " + dir + ": " + db.status().ToString());
  const auto t1 = Clock::now();
  db->event_distinct_sources();
  const auto t2 = Clock::now();
  return Loaded{std::move(*db), MsBetween(t0, t1), MsBetween(t1, t2)};
}

/// The end-to-end view of a set of connection logs.
struct Summary {
  double qps = 0;
  double p50 = 0;
  double p95 = 0;
  double page_p50 = 0;
  double page_p95 = 0;
  double batch_qps = 0;
  double ingest_p50 = 0;
  double wire = 0;
  double hit_ratio = 0;
  std::uint64_t samples = 0;
  std::uint64_t pages = 0;
};

Summary Summarize(const Options& o, const Plan& plan,
                  const std::vector<ConnLog>& logs, double seconds,
                  const ConnLog& probe) {
  // Rates are the median over slices of the window, so a transient stall
  // (another tenant on the host) moves one slice, not the result. Slices
  // are tenths of the window, except on analyst, where a slice is one
  // whole pass over the request cycle and only whole passes count: every
  // seed's sample then holds the same mix of kinds and shapes.
  std::vector<double> bounds;
  std::size_t counted = logs[0].samples.size();
  if (o.workload == Workload::kAnalyst) {
    const std::size_t cycle = plan.analyst_cycle.size();
    std::size_t in_window = 0;
    while (in_window < counted && logs[0].samples[in_window].in_window) ++in_window;
    counted = in_window >= cycle ? in_window / cycle * cycle : in_window;
    bounds.push_back(0);
    for (std::size_t end = cycle; end <= counted; end += cycle) {
      bounds.push_back(logs[0].samples[end - 1].at_s);
    }
  }
  if (bounds.size() < 2) {
    bounds.clear();
    for (int k = 0; k <= 10; ++k) bounds.push_back(seconds * k / 10);
  }
  const std::size_t slices = bounds.size() - 1;
  const auto slice_of = [&bounds, slices](double at_s) {
    const auto it = std::lower_bound(bounds.begin() + 1, bounds.end(), at_s);
    return std::min(static_cast<std::size_t>(it - bounds.begin() - 1), slices - 1);
  };
  std::vector<double> reads_in(slices, 0), batch_in(slices, 0);
  std::vector<double> lat, pages, wire;
  std::uint64_t cached = 0, all = 0;
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const ConnLog& log = logs[c];
    // On dashboard the batch connection is not a read.
    const bool reads = o.workload != Workload::kDashboard || c < kPageConnections;
    for (std::size_t i = 0; i < log.samples.size(); ++i) {
      const auto& x = log.samples[i];
      if (o.workload == Workload::kAnalyst && i >= counted) break;
      if (!x.in_window || !x.ok) continue;
      // batch_qps: the batch connection on dashboard; on analyst, the
      // batch-lane kinds of its one connection.
      const bool batch = !reads || (o.workload == Workload::kAnalyst &&
                                    plan.catalog.batch[static_cast<std::size_t>(x.key)]);
      if (batch) ++batch_in[slice_of(x.at_s)];
      if (!reads) continue;
      ++all;
      cached += x.cached ? 1 : 0;
      ++reads_in[slice_of(x.at_s)];
      lat.push_back(x.ms);
    }
    if (reads) {
      pages.insert(pages.end(), log.pages.begin(), log.pages.end());
      wire.insert(wire.end(), log.wire.begin(), log.wire.end());
    }
  }
  // analyst sends bursts of one request: a page of one.
  if (o.workload == Workload::kAnalyst) pages = lat;
  for (std::size_t k = 0; k < slices; ++k) {
    const double len = bounds[k + 1] - bounds[k];
    reads_in[k] /= len;
    batch_in[k] /= len;
  }
  Summary s;
  s.qps = Quantile(reads_in, 0.5);
  s.batch_qps = Quantile(batch_in, 0.5);
  s.p50 = Quantile(lat, 0.50);
  s.p95 = Quantile(lat, 0.95);
  s.page_p50 = Quantile(pages, 0.50);
  s.page_p95 = Quantile(pages, 0.95);
  s.ingest_p50 = Quantile(probe.ingest, 0.50);
  s.wire = Quantile(wire, 0.50);
  s.hit_ratio = all == 0 ? 0 : static_cast<double>(cached) / static_cast<double>(all);
  s.samples = lat.size();
  s.pages = pages.size();
  return s;
}

std::string Json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, vu] : m) {
    if (out.size() > 1) out += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    out += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + vu.second + "\"}";
  }
  return out + "}";
}

/// The driver's own CPU time and the host's CPU accounting, sampled
/// around each measured window: the first shows a load-generator
/// bottleneck, the second time stolen from this VM by its neighbours.
struct Usage {
  double driver_cpu_s = 0;
  double host_steal = 0;  ///< /proc/stat jiffies
  double host_total = 0;

  static Usage Now() {
    Usage u;
    rusage r{};
    ::getrusage(RUSAGE_SELF, &r);
    u.driver_cpu_s = static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
                     static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e6;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    for (int field = 0; field < 8; ++field) {
      double v = 0;
      stat >> v;
      u.host_total += v;
      if (field == 7) u.host_steal = v;
    }
    return u;
  }
  void AddSince(const Usage& start) {
    const Usage now = Now();
    driver_cpu_s += now.driver_cpu_s - start.driver_cpu_s;
    host_steal += now.host_steal - start.host_steal;
    host_total += now.host_total - start.host_total;
  }
};

int Run(const Options& o) {
  const std::vector<ArchivePair> archives = ListArchivePairs(o.archives);
  const std::size_t writes = 1 + kProbeIngests;
  if (archives.size() < writes) {
    Die("need at least " + std::to_string(writes) +
        " archive pairs in " + o.archives);
  }
  const Plan plan = MakePlan(o.workload, o.seed, o.days, archives);
  std::vector<ConnLog> all_logs;  // every query response, for the gate
  ConnLog setup_log;
  ConnLog probe_log;
  std::vector<double> setup_s;
  Metrics out;
  std::uint64_t attempted = 0;
  std::uint64_t extra_failed = 0;

  const auto deploy_and_probe = [&] {
    Deployment d = Deploy(o, plan, setup_log);
    setup_s.push_back(d.setup_s);
    ProbeIngests(plan, d, probe_log);
    return d;
  };
  Usage usage;  // summed over the measured windows
  std::uint64_t window_requests = 0;
  if (!o.trace) {
    // Every deployment takes the probe ingests, so ingest_p50_ms pools
    // samples from as many fresh servers as setup_s does.
    for (int rep = 1; rep < o.setups; ++rep) deploy_and_probe();
    Deployment d = deploy_and_probe();
    const Usage window_start = Usage::Now();
    std::vector<ConnLog> logs = RunWindow(o, plan, d, o.seconds, false);
    usage.AddSince(window_start);
    const double mem = MemMiB(d);
    const ServerCounters counters = ReadCounters(d);
    d.procs.clear();
    const Summary s = Summarize(o, plan, logs, o.seconds, probe_log);
    out["setup_s"] = {Quantile(setup_s, 0.5), "s"};
    out["mem_mib"] = {mem, "MiB"};
    out["qps"] = {s.qps, "req/s"};
    out["p50_ms"] = {s.p50, "ms"};
    out["p95_ms"] = {s.p95, "ms"};
    out["page_p50_ms"] = {s.page_p50, "ms"};
    out["page_p95_ms"] = {s.page_p95, "ms"};
    out["batch_qps"] = {s.batch_qps, "req/s"};
    out["ingest_p50_ms"] = {s.ingest_p50, "ms"};
    std::fprintf(stderr,
                 "window: %llu latency samples, %llu pages, hit ratio %.3f, "
                 "server rejected=%g timeouts=%g shard_failures=%g\n",
                 static_cast<unsigned long long>(s.samples),
                 static_cast<unsigned long long>(s.pages), s.hit_ratio,
                 counters.rejected, counters.timeouts, counters.shard_failures);
    for (auto& l : logs) all_logs.push_back(std::move(l));
  } else {
    // Untraced and traced windows on identical fresh deployments, half
    // the run each; their qps gap is the tracing overhead.
    double qps[2] = {0, 0};
    for (int traced = 0; traced < 2; ++traced) {
      Deployment d = deploy_and_probe();
      const Usage window_start = Usage::Now();
      std::vector<ConnLog> logs = RunWindow(o, plan, d, o.seconds / 2, traced == 1);
      usage.AddSince(window_start);
      const Summary s = Summarize(o, plan, logs, o.seconds / 2, probe_log);
      qps[traced] = s.qps;
      if (traced == 1) {
        const ServerCounters counters = ReadCounters(d);
        out["serve.rejected"] = {counters.rejected, "count"};
        out["serve.timeouts"] = {counters.timeouts, "count"};
        out["serve.cache_evicted_stale"] = {counters.evicted_stale, "count"};
        out["router.shard_failures"] = {counters.shard_failures, "count"};
        out["server.wire_ms"] = {s.wire, "ms"};
        out["cache.hit_ratio"] = {s.hit_ratio, "ratio"};
      }
      d.procs.clear();
      for (auto& l : logs) all_logs.push_back(std::move(l));
    }
    out["trace.overhead_pct"] = {qps[0] > 0 ? 100.0 * (qps[0] - qps[1]) / qps[0] : 0,
                                 "%"};
  }
  for (const ConnLog& l : all_logs) {
    attempted += l.attempted;
    window_requests += l.attempted;
  }
  attempted += setup_log.attempted + probe_log.attempted;
  const double cpu_per_request =
      usage.driver_cpu_s / static_cast<double>(std::max<std::uint64_t>(1, window_requests));

  Loaded loaded = LoadDb(o.db);
  std::vector<const ConnLog*> checked = {&setup_log, &probe_log};
  for (const ConnLog& l : all_logs) checked.push_back(&l);
  std::uint64_t failed = CheckResponses(loaded.db, plan.catalog, checked);

  if (o.trace) {
    out["engine.load_ms"] = {loaded.load_ms, "ms"};
    out["engine.index_ms"] = {loaded.index_ms, "ms"};
    out["engine.table_mib"] = {
        static_cast<double>(loaded.db.MemoryBytes()) / (1024.0 * 1024.0), "MiB"};
    const Workload other = o.workload == Workload::kAnalyst ? Workload::kDashboard
                                                             : Workload::kAnalyst;
    const Plan other_plan = MakePlan(other, o.seed, o.days, archives);
    const bool analyst = o.workload == Workload::kAnalyst;
    StageTotals shard_stages;
    Metrics layers = ReplayLayers(loaded.db, analyst ? plan : other_plan,
                                  analyst ? other_plan : plan, shard_stages,
                                  extra_failed);
    out.insert(layers.begin(), layers.end());
    // The router answers without a stage split, so analyst reports the
    // split its shards give the same sub-requests in the replay.
    StageTotals window_stages;
    for (const ConnLog& l : all_logs) window_stages.Merge(l.stages);
    (o.workload == Workload::kAnalyst ? shard_stages : window_stages).Report(out);
  }
  failed += extra_failed;

  char host[512];
  std::snprintf(host, sizeof(host),
                "provenance {\"nproc\":%ld,\"avx2\":%s,\"compiler\":\"%s\","
                "\"build_type\":\"%s\",\"events\":%zu,\"mentions\":%zu,"
                "\"sources\":%u,\"driver_cpu_us_per_request\":%.3f,"
                "\"host_steal_pct\":%.2f}",
                ::sysconf(_SC_NPROCESSORS_ONLN),
                __builtin_cpu_supports("avx2") ? "true" : "false", E2E_COMPILER,
                E2E_BUILD_TYPE, loaded.db.num_events(), loaded.db.num_mentions(),
                loaded.db.num_sources(), cpu_per_request * 1e6,
                usage.host_total > 0 ? 100.0 * usage.host_steal / usage.host_total : 0.0);
  std::printf("%s\n", host);
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), Json(out).c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  gdelt::ArgParser args("Closed-loop end-to-end benchmark driver.");
  args.AddString("workload", "", "analyst | dashboard");
  args.AddInt("seed", 1, "request-sequence seed");
  args.AddDouble("seconds", 10, "measured window length");
  args.AddInt("trace", 0, "1 = per-layer traced run");
  args.AddString("bin", "", "directory holding gdelt_serve and gdelt_router");
  args.AddString("db", "", "converted database directory");
  args.AddString("archives", "", "raw dataset directory whose archives are ingested");
  args.AddString("work", "", "directory for server logs");
  args.AddInt("days", 0, "calendar days the dataset covers from 2015-02-18");
  args.AddInt("setups", 3, "deployments per run; setup_s is their median");
  if (const auto s = args.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(), args.HelpText().c_str());
    return 2;
  }
  e2e::Options o;
  if (!e2e::ParseWorkload(args.GetString("workload"), o.workload)) {
    std::fprintf(stderr, "unknown --workload '%s'\n", args.GetString("workload").c_str());
    return 2;
  }
  o.seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  o.seconds = args.GetDouble("seconds");
  o.trace = args.GetInt("trace") != 0;
  o.bin = args.GetString("bin");
  o.db = args.GetString("db");
  o.archives = args.GetString("archives");
  o.work = args.GetString("work");
  o.days = static_cast<int>(args.GetInt("days"));
  o.setups = static_cast<int>(std::max<std::int64_t>(1, args.GetInt("setups")));
  if (o.bin.empty() || o.db.empty() || o.archives.empty() || o.work.empty() ||
      o.days < 1 || o.seconds <= 0) {
    std::fprintf(stderr, "--bin, --db, --archives, --work, --days are required\n");
    return 2;
  }
  return e2e::Run(o);
}
