// The repository benchmark: one workload per invocation, over real sockets
// against an in-process HttpServer (or a GatewayServer over forked nodes for
// `fleet`), with every response checked. Prints each metric by name with
// its unit and, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant, which times the same op stream at the wire, cluster and core
// depths (and gateway vs direct node on `fleet`) and reports the per-layer
// metrics. Run it through perfbench/run.py, which builds it first.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/warehouse_cluster.h"
#include "corpus/web_corpus.h"
#include "depths.h"
#include "gateway/gateway_server.h"
#include "gateway/node_process.h"
#include "load.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "stats.h"
#include "trace/workload.h"
#include "util/hash.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace wl = cbfww::workload;
using cbfww::StrFormat;

constexpr int kSetupRepeats = 5;
/// Placement metrics are read over this many leading ops of the measured
/// stream (every workload completes them well inside a run).
constexpr uint64_t kPlacementPrefixOps = 30000;
/// End-to-end percentiles and throughput are medians over this many
/// consecutive windows of the measured period (fewer when a window would
/// not support the percentile). On a shared 4-vCPU VM, single-thread
/// speed swung by up to 1.8x between 5 s stretches; the median keeps a
/// slow stretch out of the value.
constexpr int kWindows = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  uint64_t dump_ops = 0;
  bool list_metrics = false;
  bool self_test = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cbfww_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n"
               "       cbfww_perfbench --workload NAME --seed N --dump-ops N\n"
               "       cbfww_perfbench --list-metrics | --self-test\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics" || flag == "--self-test") {
      (flag == "--self-test" ? args.self_test : args.list_metrics) = true;
      return args;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--dump-ops") {
      args.dump_ops = std::strtoull(value.c_str(), &end, 10);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + flag).c_str());
  }
  if (FindWorkload(args.workload) == nullptr) Usage("unknown --workload");
  return args;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::string ReadFirstMatch(const char* path, const char* prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      size_t colon = line.find(':');
      std::string value = colon == std::string::npos ? line : line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  }
  return "unknown";
}

/// Everything one invocation reports.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<std::string> missing;  // Percentiles refused for lack of samples.
  std::vector<int> generator_cpus;
  std::vector<double> setup_s;  // One per set-up repetition.
  std::vector<Span> spans;

  void Add(std::string name, double value, std::string unit,
           uint64_t samples = 0) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  /// Adds percentile `q` of `samples` (median over time windows, see
  /// WindowedPercentile), or records the refusal.
  void AddPercentile(std::string name, const std::vector<double>& samples,
                     const std::vector<uint64_t>& done_ns, double q,
                     int windows, const char* unit = "us") {
    auto value = WindowedPercentile(samples, done_ns, q, windows);
    if (!value) {
      missing.push_back(StrFormat("%s (n=%zu)", name.c_str(), samples.size()));
      return;
    }
    Add(std::move(name), *value, unit, samples.size());
  }
  /// Accounts a load phase's outcome towards correctness.
  void Account(const LoadResult& r, const char* phase) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed > 0 || r.wrong > 0) {
      correct = false;
      problems.push_back(StrFormat("%s: %llu failed, %llu wrong", phase,
                                   static_cast<unsigned long long>(r.failed),
                                   static_cast<unsigned long long>(r.wrong)));
    }
    for (const std::string& p : r.problems) problems.push_back(p);
    for (int cpu : r.cpus) {
      if (std::find(generator_cpus.begin(), generator_cpus.end(), cpu) ==
          generator_cpus.end()) {
        generator_cpus.push_back(cpu);
      }
    }
  }
  void Check(bool ok, std::string what) {
    if (!ok) {
      correct = false;
      problems.push_back("reconciliation: " + std::move(what));
    }
  }
};

/// Removes the run's scratch directory (WALs, node state) on every path.
struct ScratchDir {
  std::string path;
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

// ----- In-process node: WarehouseCluster + HttpServer -----

struct InProc {
  std::unique_ptr<cbfww::cluster::WarehouseCluster> cluster;
  std::unique_ptr<cbfww::server::HttpServer> server;

  InProc() = default;
  InProc(const InProc&) = delete;
  InProc& operator=(const InProc&) = delete;
  ~InProc() {
    if (server) server->Stop();
    server.reset();
    cluster.reset();
  }
  void WaitIdle() const {
    const uint64_t deadline = NowNs() + 30'000'000'000ull;
    while (!cluster->Idle() && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

std::unique_ptr<InProc> StartInProc() {
  auto node = std::make_unique<InProc>();
  node->cluster = std::make_unique<cbfww::cluster::WarehouseCluster>(
      BenchCorpusOptions(), std::nullopt,
      BenchClusterOptions(kShape.shards, kShape.io_threads, ""));
  cbfww::server::ServerOptions sopts;
  sopts.io_threads = kShape.io_threads;
  sopts.accept_mode = cbfww::server::AcceptMode::kHandoff;
  node->server =
      std::make_unique<cbfww::server::HttpServer>(node->cluster.get(), sopts);
  cbfww::Status started = node->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  return node;
}

// ----- Fleet: GatewayServer over forked single-shard nodes -----

struct Fleet {
  std::vector<cbfww::gateway::NodeProcess> nodes;
  std::unique_ptr<cbfww::gateway::GatewayServer> gateway;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    if (gateway) gateway->Stop();
    gateway.reset();
    for (auto& node : nodes) node.Terminate();
  }
  std::vector<uint16_t> NodePorts() const {
    std::vector<uint16_t> ports;
    for (const auto& node : nodes) ports.push_back(node.port());
    return ports;
  }
};

/// Exits the process on a failed start, after terminating the nodes
/// already spawned: a live node would outlive the run.
std::unique_ptr<Fleet> StartFleet(const std::string& dir) {
  auto fleet = std::make_unique<Fleet>();
  std::vector<cbfww::gateway::NodeEndpoint> endpoints;
  for (uint32_t n = 0; n < kFleetNodes; ++n) {
    cbfww::gateway::NodeProcessOptions nopts;
    nopts.node_id = StrFormat("node-%u", n);
    nopts.corpus = BenchCorpusOptions();
    nopts.cluster = BenchClusterOptions(1, kFleetNodeIoThreads,
                                        StrFormat("%s/node-%u", dir.c_str(), n));
    nopts.server.io_threads = kFleetNodeIoThreads;
    auto node = cbfww::gateway::NodeProcess::Spawn(nopts);
    if (!node.ok()) {
      std::fprintf(stderr, "node spawn failed: %s\n",
                   node.status().ToString().c_str());
      fleet.reset();
      std::exit(1);
    }
    endpoints.push_back(
        cbfww::gateway::NodeEndpoint{nopts.node_id, "127.0.0.1", node->port()});
    fleet->nodes.push_back(std::move(*node));
  }
  cbfww::gateway::GatewayOptions gopts;
  gopts.replication = kFleetReplication;
  fleet->gateway = std::make_unique<cbfww::gateway::GatewayServer>(
      std::move(endpoints), gopts);
  cbfww::Status started = fleet->gateway->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "gateway start failed: %s\n",
                 started.ToString().c_str());
    fleet.reset();
    std::exit(1);
  }
  return fleet;
}

/// Live counters of one node, from its /metrics.
struct NodeCounters {
  double page = 0, query = 0, modify = 0, submitted = 0, processed = 0;
};

NodeCounters ScrapeNode(uint16_t port, Report& report) {
  NodeCounters c;
  cbfww::server::ClientOptions copts;
  copts.connect_timeout_ms = 2000;
  copts.read_timeout_ms = 5000;
  cbfww::server::SimpleHttpClient client(copts);
  if (!client.Connect("127.0.0.1", port).ok()) {
    report.Check(false, StrFormat("cannot scrape node on port %u", port));
    return c;
  }
  auto response = client.RoundTrip("GET", "/metrics");
  if (!response.ok() || response->status != 200) {
    report.Check(false, StrFormat("node /metrics on port %u failed", port));
    return c;
  }
  std::istringstream in(response->body);
  std::string line;
  auto value = [](const std::string& l) {
    return std::strtod(l.c_str() + l.rfind(' ') + 1, nullptr);
  };
  while (std::getline(in, line)) {
    if (line.rfind("cbfww_route_requests_total{route=\"page\"}", 0) == 0) {
      c.page = value(line);
    } else if (line.rfind("cbfww_route_requests_total{route=\"query\"}", 0) == 0) {
      c.query = value(line);
    } else if (line.rfind("cbfww_route_requests_total{route=\"modify\"}", 0) ==
               0) {
      c.modify = value(line);
    } else if (line.rfind("cbfww_shard_submitted_total{", 0) == 0) {
      c.submitted += value(line);
    } else if (line.rfind("cbfww_shard_processed_total{", 0) == 0) {
      c.processed += value(line);
    }
  }
  return c;
}

/// Scrapes every node until its shards have processed all they were
/// handed (quiescence), for up to 10 s.
std::vector<NodeCounters> QuiescedNodeCounters(const Fleet& fleet,
                                               Report& report) {
  std::vector<NodeCounters> out;
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  for (uint16_t port : fleet.NodePorts()) {
    NodeCounters c = ScrapeNode(port, report);
    while (c.processed < c.submitted && NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      c = ScrapeNode(port, report);
    }
    out.push_back(c);
  }
  return out;
}

// ----- Shared pieces of a run -----

struct Inputs {
  std::unique_ptr<cbfww::corpus::WebCorpus> corpus;
  std::vector<wl::Op> warmup_ops;
  std::vector<WireOp> warmup_wire;
  std::vector<wl::Op> ops;
  std::vector<WireOp> wire;
  std::vector<std::string> search_terms;
};

uint64_t PoolSize(double seconds) {
  return std::max<uint64_t>(20000, static_cast<uint64_t>(seconds * 12000));
}

LoadPlan BasePlan(const Inputs& in, const std::vector<uint16_t>& ports,
                  bool gateway) {
  LoadPlan plan;
  plan.ports = ports;
  plan.ops = &in.wire;
  plan.connections = kShape.connections;
  plan.gateway = gateway;
  plan.query_slots = gateway ? kFleetNodes : kShape.shards;
  plan.depth = gateway ? "gateway" : "wire";
  return plan;
}

LoadResult Warmup(const Inputs& in, const std::vector<uint16_t>& ports,
                  bool gateway) {
  LoadPlan plan = BasePlan(in, ports, gateway);
  plan.ops = &in.warmup_wire;
  plan.max_ops = kWarmupOps;
  plan.seconds = 60.0;
  return DriveWire(plan);
}

/// Completions per second, as the median over kWindows equal
/// slices of the measured period.
double WindowedThroughput(const LoadResult& r) {
  std::vector<double> counts(kWindows, 0.0);
  const double slice_ns = r.wall_s * 1e9 / kWindows;
  for (int c = 0; c < kNumCls; ++c) {
    for (uint64_t t : r.done_ns[c]) {
      const int w = static_cast<int>(static_cast<double>(t - r.start_ns) / slice_ns);
      counts[std::clamp(w, 0, kWindows - 1)] += 1.0;
    }
  }
  for (double& n : counts) n /= slice_ns / 1e9;
  return Median(counts);
}

/// The e2e metrics every workload shares, from the measured load.
void AddWireMetrics(const LoadResult& r, double server_cpu_s, double setup_s,
                    double peak_rss_mb, Report& report) {
  report.Add("throughput_ops_s", WindowedThroughput(r), "ops/s", r.completed);
  for (int c = 0; c < kNumCls; ++c) {
    const char* name = ClsName(static_cast<Cls>(c));
    report.AddPercentile(StrFormat("%s_p50_us", name), r.lat_us[c],
                         r.done_ns[c], 0.50, kWindows);
    // The tail of the ~45 us modify ack follows the host's speed swings
    // more than the warehouse: its p99 read 130-1100 us on identical
    // inputs and its p90 spread past 0.25 over ten seeds. Only its p50 is
    // reported.
    if (c != kModify) {
      report.AddPercentile(StrFormat("%s_p99_us", name), r.lat_us[c],
                           r.done_ns[c], 0.99, kWindows);
    }
  }
  report.Add("success_frac",
             r.attempted == 0 ? 0.0
                              : static_cast<double>(r.completed) /
                                    static_cast<double>(r.attempted),
             "frac", r.attempted);
  // Placement quality depends on the op sequence, not on how fast it was
  // served: read it over a fixed prefix of the stream that every run
  // completes, so a slow host does not change it by serving fewer ops.
  double sim_us = 0.0, from_origin = 0.0, pages = 0.0;
  for (const LoadResult::PageServe& serve : r.page_serves) {
    if (serve.op >= kPlacementPrefixOps) continue;
    sim_us += serve.sim_latency_us;
    from_origin += serve.from_origin;
    pages += 1.0;
  }
  pages = std::max(1.0, pages);
  report.Add("sim_page_latency_us", sim_us / pages, "us",
             static_cast<uint64_t>(pages));
  report.Add("origin_fetches_per_page", from_origin / pages, "1/page",
             static_cast<uint64_t>(pages));
  report.Add("server_cpu_us_per_op",
             r.completed == 0 ? 0.0
                              : server_cpu_s * 1e6 /
                                    static_cast<double>(r.completed),
             "us", r.completed);
  report.Add("peak_rss_mb", peak_rss_mb, "MiB");
  report.Add("setup_s", setup_s, "s", kSetupRepeats);
}

// ----- Untraced runs: the end-to-end metrics -----

void RunInProc(const Inputs& in, const Args& args, Report& report) {
  std::vector<double>& setup_s = report.setup_s;
  std::unique_ptr<InProc> node;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    node.reset();
    const uint64_t t0 = NowNs();
    node = StartInProc();
    LoadResult warm = Warmup(in, {node->server->port()}, false);
    node->WaitIdle();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    report.Account(warm, "warm-up");
  }

  auto before = node->cluster->Report();
  auto rt_before = node->cluster->RuntimeStats();
  const double cpu0 = ProcessCpuS();
  LoadPlan plan = BasePlan(in, {node->server->port()}, false);
  plan.seconds = args.seconds;
  LoadResult r = DriveWire(plan);
  node->WaitIdle();
  const double cpu1 = ProcessCpuS();
  auto after = node->cluster->Report();
  auto rt_after = node->cluster->RuntimeStats();
  report.Account(r, "measured");
  // Quiesced counters reconcile with what the clients saw acknowledged.
  const uint64_t pages = r.ok[kPage];
  report.Check(after.counters.requests - before.counters.requests == pages,
               StrFormat("warehouse requests %llu != pages acknowledged %llu",
                         static_cast<unsigned long long>(
                             after.counters.requests - before.counters.requests),
                         static_cast<unsigned long long>(pages)));
  uint64_t processed = 0;
  for (size_t s = 0; s < rt_after.size(); ++s) {
    processed += rt_after[s].processed - rt_before[s].processed;
  }
  const uint64_t expected =
      pages + (r.ok[kQuery] + r.ok[kModify]) * kShape.shards;
  report.Check(processed == expected,
               StrFormat("shard events processed %llu != %llu expected from "
                         "acknowledged pages, queries and modifies",
                         static_cast<unsigned long long>(processed),
                         static_cast<unsigned long long>(expected)));

  AddWireMetrics(r, cpu1 - cpu0 - r.client_cpu_s, Median(setup_s),
                 PeakRssMb(0), report);
}

void RunFleet(const Inputs& in, const Args& args, const std::string& scratch,
              Report& report) {
  std::vector<double>& setup_s = report.setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fleet.reset();
    const std::string dir = StrFormat("%s/fleet-%d", scratch.c_str(), rep);
    const uint64_t t0 = NowNs();
    fleet = StartFleet(dir);
    LoadResult warm = Warmup(in, {fleet->gateway->port()}, true);
    QuiescedNodeCounters(*fleet, report);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    report.Account(warm, "warm-up");
  }

  const auto& gstats = fleet->gateway->stats();
  const uint64_t acked0 = gstats.writes_acked.load();
  std::vector<NodeCounters> before = QuiescedNodeCounters(*fleet, report);
  std::vector<double> node_cpu0;
  for (const auto& node : fleet->nodes) node_cpu0.push_back(ProcCpuS(node.pid()));
  const double cpu0 = ProcessCpuS();

  LoadPlan plan = BasePlan(in, {fleet->gateway->port()}, true);
  plan.seconds = args.seconds;
  LoadResult r = DriveWire(plan);

  const double cpu1 = ProcessCpuS();
  std::vector<NodeCounters> after = QuiescedNodeCounters(*fleet, report);
  double node_cpu = 0.0;
  double rss = PeakRssMb(0);
  for (size_t n = 0; n < fleet->nodes.size(); ++n) {
    node_cpu += ProcCpuS(fleet->nodes[n].pid()) - node_cpu0[n];
    rss += PeakRssMb(fleet->nodes[n].pid());
  }
  report.Account(r, "measured");

  // Every read reaches exactly one node (all nodes are up), and with
  // R = nodes every acknowledged write and every scatter query reaches
  // every node.
  double node_pages = 0.0;
  for (size_t n = 0; n < after.size(); ++n) {
    node_pages += after[n].page - before[n].page;
    report.Check(after[n].modify - before[n].modify ==
                     static_cast<double>(r.ok[kModify]),
                 StrFormat("node-%zu saw %.0f modifies, %llu acknowledged", n,
                           after[n].modify - before[n].modify,
                           static_cast<unsigned long long>(r.ok[kModify])));
    report.Check(after[n].query - before[n].query ==
                     static_cast<double>(r.ok[kQuery]),
                 StrFormat("node-%zu saw %.0f queries, %llu answered", n,
                           after[n].query - before[n].query,
                           static_cast<unsigned long long>(r.ok[kQuery])));
    report.Check(after[n].processed == after[n].submitted,
                 StrFormat("node-%zu did not quiesce", n));
  }
  report.Check(node_pages == static_cast<double>(r.ok[kPage]),
               StrFormat("nodes saw %.0f page reads, %llu acknowledged",
                         node_pages,
                         static_cast<unsigned long long>(r.ok[kPage])));
  report.Check(gstats.writes_acked.load() - acked0 == r.ok[kModify],
               "gateway acked-write count differs from 202s received");

  AddWireMetrics(r, node_cpu + (cpu1 - cpu0 - r.client_cpu_s),
                 Median(setup_s), rss, report);
}

// ----- Traced runs: the per-layer metrics -----

/// End-to-end metric names and units, in report order.
const char* const kEndToEndMetrics[][2] = {
    {"throughput_ops_s", "ops/s"},
    {"page_p50_us", "us"},
    {"page_p99_us", "us"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"modify_p50_us", "us"},
    {"success_frac", "frac"},
    {"sim_page_latency_us", "us"},
    {"origin_fetches_per_page", "1/page"},
    {"server_cpu_us_per_op", "us"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
};

/// Per-layer metric names and units. A layer off the workload's path
/// reports 0 (see README, "Which layers each workload loads").
const char* const kLayerMetrics[][2] = {
    {"server.page_self_us_p50", "us"},
    {"server.query_self_us_p50", "us"},
    {"server.modify_self_us_p50", "us"},
    {"server.io_busy_us_per_op", "us"},
    {"server.parse_ns_per_req", "ns"},
    {"server.render_ns_per_page", "ns"},
    {"server.shed", "count"},
    {"server.conn_timeouts", "count"},
    {"cluster.page_us_p50", "us"},
    {"cluster.page_us_p99", "us"},
    {"cluster.query_us_p99", "us"},
    {"cluster.queue_wait_us_p50", "us"},
    {"cluster.queue_wait_us_p99", "us"},
    {"cluster.shard_busy_max_s", "s"},
    {"cluster.shard_busy_sum_s", "s"},
    {"cluster.shard_imbalance", "ratio"},
    {"cluster.shed", "count"},
    {"core.page_us_p50", "us"},
    {"core.page_us_p99", "us"},
    {"core.query_us_p50", "us"},
    {"core.query_us_p99", "us"},
    {"core.query_candidates_per_row", "ratio"},
    {"core.modify_us_p99", "us"},
    {"core.tick_us_p99", "us"},
    {"core.query_cache_hit_frac", "frac"},
    {"core.prediction_cache_hit_frac", "frac"},
    {"core.prefetches", "count"},
    {"core.path_prefetches", "count"},
    {"core.consistency_polls", "count"},
    {"core.rebalances", "count"},
    {"core.admission_rejections", "count"},
    {"core.indexed_query_frac", "frac"},
    {"index.search_us_p50", "us"},
    {"storage.memory_hit_frac", "frac"},
    {"storage.disk_hit_frac", "frac"},
    {"storage.origin_serve_frac", "frac"},
    {"storage.mem_used_frac", "frac"},
    {"storage.resident_objects.memory", "count"},
    {"storage.resident_objects.disk", "count"},
    {"storage.resident_objects.tertiary", "count"},
    {"net.origin_fetch_retries", "count"},
    {"net.origin_fetches", "count"},
    {"durability.wal_bytes_per_event", "bytes"},
    {"durability.checkpoints", "count"},
    {"durability.checkpoint_ms_max", "ms"},
    {"gateway.self_us_p50", "us"},
    {"gateway.modify_fanout_us_p90", "us"},
    {"gateway.node_cpu_s_max", "s"},
    {"gateway.rung_peer", "count"},
    {"gateway.rung_origin", "count"},
    {"gateway.upstream_reconnects", "count"},
    {"workload.gen_lag_p99_us", "us"},
    {"workload.client_cpu_s", "s"},
    {"trace.overhead_page_p50_us", "us"},
    {"trace.spans", "count"},
};

/// Collects per-layer values by name, then emits the full list in table
/// order: layers off the workload's path report 0.
struct LayerValues {
  std::vector<std::pair<std::string, std::pair<double, uint64_t>>> values;
  std::vector<std::string> refused;  // Percentiles without enough samples.
  void Set(const std::string& name, double value, uint64_t samples = 0) {
    values.push_back({name, {value, samples}});
  }
  /// Sets the difference of percentile `q` between two depths' samples,
  /// when both percentiles are supported.
  void SetDiff(const std::string& name, const std::vector<double>& upper,
               const std::vector<double>& lower, double q, Report& report) {
    auto a = Percentile(upper, q);
    auto b = Percentile(lower, q);
    if (a && b) {
      Set(name, *a - *b);
    } else {
      refused.push_back(name);
      report.missing.push_back(name);
    }
  }
  void SetPercentile(const std::string& name, const std::vector<double>& v,
                     double q, Report& report) {
    auto p = Percentile(v, q);
    if (p) {
      Set(name, *p, v.size());
    } else {
      refused.push_back(name);
      report.missing.push_back(StrFormat("%s (n=%zu)", name.c_str(), v.size()));
    }
  }
  void Emit(Report& report) const {
    for (const auto& entry : kLayerMetrics) {
      if (std::find(refused.begin(), refused.end(), entry[0]) !=
          refused.end()) {
        continue;
      }
      double value = 0.0;
      uint64_t samples = 0;
      for (const auto& [name, v] : values) {
        if (name == entry[0]) {
          value = v.first;
          samples = v.second;
        }
      }
      report.Add(entry[0], value, entry[1], samples);
    }
  }
};

void AddCoreLayer(const CoreDepthResult& core, LayerValues& lv,
                  Report& report) {
  lv.SetPercentile("core.page_us_p50", core.lat_us[kPage], 0.50, report);
  lv.SetPercentile("core.page_us_p99", core.lat_us[kPage], 0.99, report);
  lv.SetPercentile("core.query_us_p50", core.lat_us[kQuery], 0.50, report);
  lv.SetPercentile("core.query_us_p99", core.lat_us[kQuery], 0.99, report);
  lv.SetPercentile("core.modify_us_p99", core.lat_us[kModify], 0.99, report);
  lv.SetPercentile("core.tick_us_p99", core.tick_us, 0.99, report);
  lv.SetPercentile("index.search_us_p50", core.search_us, 0.50, report);
  lv.Set("core.query_candidates_per_row",
         static_cast<double>(core.candidates) /
             static_cast<double>(std::max<uint64_t>(1, core.rows)),
         core.queries);
  lv.Set("core.indexed_query_frac",
         static_cast<double>(core.indexed_queries) /
             static_cast<double>(std::max<uint64_t>(1, core.queries)),
         core.queries);
  if (!core.checkpoint_ms.empty() || core.wal_bytes > 0) {
    lv.Set("durability.wal_bytes_per_event",
           static_cast<double>(core.wal_bytes) /
               static_cast<double>(std::max<uint64_t>(1, core.events)),
           core.events);
    lv.Set("durability.checkpoints",
           static_cast<double>(core.checkpoint_ms.size()));
    lv.Set("durability.checkpoint_ms_max", Max(core.checkpoint_ms),
           core.checkpoint_ms.size());
  }
  report.Check(core.failed == 0, "core replay had failed calls");
}

void AddWorkloadLayer(const LoadResult& a, const LoadResult& b,
                      LayerValues& lv, Report& report) {
  std::vector<double> lag = a.gen_lag_us;
  lag.insert(lag.end(), b.gen_lag_us.begin(), b.gen_lag_us.end());
  lv.SetPercentile("workload.gen_lag_p99_us", lag, 0.99, report);
  lv.Set("workload.client_cpu_s", a.client_cpu_s + b.client_cpu_s);
  lv.SetDiff("trace.overhead_page_p50_us", b.lat_us[kPage],
             a.lat_us[kPage], 0.5, report);
}

/// The wire phases of a traced run: A untraced, B traced, same system.
struct WirePhases {
  LoadResult a, b;
  uint64_t b_first_op = 0;
};

WirePhases DriveTracedWire(LoadPlan plan, double seconds) {
  WirePhases out;
  plan.seconds = 0.2 * seconds;
  out.a = DriveWire(plan);
  out.b_first_op = out.a.attempted;
  plan.first_op = out.b_first_op;
  plan.seconds = 0.3 * seconds;
  plan.trace = true;
  out.b = DriveWire(plan);
  return out;
}

std::vector<wl::Op> Rotate(const std::vector<wl::Op>& ops, uint64_t first) {
  std::vector<wl::Op> out;
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    out.push_back(ops[(first + i) % ops.size()]);
  }
  return out;
}

cbfww::core::WarehouseOptions ShardOptions(uint32_t shards) {
  cbfww::core::WarehouseOptions o = BenchClusterOptions(shards, 1, "").warehouse;
  o.seed = cbfww::HashCombine(o.seed, 0);  // As shard 0 of the cluster.
  return o;
}

/// The ops a wire phase pair took from the pool (ops [0, end) in order;
/// the pool is sized so a run never wraps it).
std::vector<wl::Op> ServedOps(const std::vector<wl::Op>& pool,
                              const WirePhases& wire) {
  const uint64_t end =
      std::min<uint64_t>(pool.size(), wire.b_first_op + wire.b.attempted);
  return std::vector<wl::Op>(pool.begin(), pool.begin() + end);
}

void RunInProcTraced(const Inputs& in, const Args& args, Report& report) {
  auto node = StartInProc();
  report.Account(Warmup(in, {node->server->port()}, false), "warm-up");
  node->WaitIdle();

  auto before = node->cluster->Report();
  const auto io0 = node->server->IoBusyNs();
  const auto& sstats = node->server->stats();
  auto shed_sum = [&] {
    uint64_t n = 0;
    for (const auto& route : sstats.route) n += route.shed.load();
    return n;
  };
  auto timeouts_sum = [&] {
    return sstats.timeouts_header.load() + sstats.timeouts_body.load() +
           sstats.timeouts_idle.load() + sstats.timeouts_write_stall.load();
  };
  const uint64_t shed0 = shed_sum(), timeouts0 = timeouts_sum();

  WirePhases wire = DriveTracedWire(
      BasePlan(in, {node->server->port()}, false), args.seconds);
  node->WaitIdle();
  auto after = node->cluster->Report();
  const auto io1 = node->server->IoBusyNs();
  report.Account(wire.a, "wire (untraced)");
  report.Account(wire.b, "wire (traced)");
  const uint64_t shed1 = shed_sum(), timeouts1 = timeouts_sum();
  node->server->Stop();  // The benchmark now owns lane 0.

  const std::vector<wl::Op> ops = Rotate(in.ops, wire.b_first_op);
  ClusterDepthResult cl =
      DriveCluster(*node->cluster, ops, wire.b_first_op + 1,
                   0.25 * args.seconds, kShape.connections, true);
  report.Check(cl.failed == 0, "cluster depth had shed or failed calls");

  // The core depth replays shard 0's part of everything the cluster had
  // served before its own timed phase, so both start from the same state.
  const std::vector<wl::Op> served_ops = ServedOps(in.ops, wire);
  CoreDepthPlan cplan;
  cplan.options = ShardOptions(kShape.shards);
  cplan.history = {&in.warmup_ops, &served_ops};
  cplan.ops = &ops;
  cplan.first_request = wire.b_first_op + 1;
  cplan.owns = [](cbfww::corpus::PageId page) {
    return cbfww::trace::ShardOfPage(page, kShape.shards) == 0;
  };
  cplan.search_terms = in.search_terms;
  cplan.seconds = 0.25 * args.seconds;
  cplan.trace = true;
  CoreDepthResult core = ReplayCore(cplan);

  LayerValues lv;
  const LoadResult& b = wire.b;
  lv.SetDiff("server.page_self_us_p50", b.lat_us[kPage],
             cl.lat_us[kPage], 0.5, report);
  lv.SetDiff("server.query_self_us_p50", b.lat_us[kQuery],
             cl.lat_us[kQuery], 0.5, report);
  lv.SetDiff("server.modify_self_us_p50", b.lat_us[kModify],
             cl.lat_us[kModify], 0.5, report);
  uint64_t io_busy = 0;
  for (size_t i = 0; i < io1.size(); ++i) io_busy += io1[i] - io0[i];
  const uint64_t wire_ops = wire.a.completed + wire.b.completed;
  lv.Set("server.io_busy_us_per_op",
         static_cast<double>(io_busy) / 1e3 /
             static_cast<double>(std::max<uint64_t>(1, wire_ops)),
         wire_ops);
  lv.Set("server.parse_ns_per_req", ParseNsPerRequest(in.wire));
  lv.Set("server.render_ns_per_page", RenderNsPerPage(cl.visits),
         cl.visits.size());
  lv.Set("server.shed", static_cast<double>(shed1 - shed0));
  lv.Set("server.conn_timeouts", static_cast<double>(timeouts1 - timeouts0));

  lv.SetPercentile("cluster.page_us_p50", cl.lat_us[kPage], .5, report);
  lv.SetPercentile("cluster.page_us_p99", cl.lat_us[kPage], .99, report);
  lv.SetPercentile("cluster.query_us_p99", cl.lat_us[kQuery], .99, report);
  lv.SetDiff("cluster.queue_wait_us_p50", cl.lat_us[kPage],
             core.lat_us[kPage], 0.5, report);
  lv.SetDiff("cluster.queue_wait_us_p99", cl.lat_us[kPage],
             core.lat_us[kPage], 0.99, report);
  double busy_max = 0.0, busy_sum = 0.0;
  for (size_t s = 0; s < after.shard_busy_ns.size(); ++s) {
    const double busy =
        static_cast<double>(after.shard_busy_ns[s] - before.shard_busy_ns[s]) /
        1e9;
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  lv.Set("cluster.shard_busy_max_s", busy_max);
  lv.Set("cluster.shard_busy_sum_s", busy_sum);
  lv.Set("cluster.shard_imbalance",
         busy_sum > 0.0 ? busy_max * static_cast<double>(kShape.shards) / busy_sum
                        : 0.0);
  lv.Set("cluster.shed",
         static_cast<double>(after.TotalShed() - before.TotalShed()));

  const auto& c0 = before.counters;
  const auto& c1 = after.counters;
  const double cache_lookups = static_cast<double>(
      (c1.query_cache_hits - c0.query_cache_hits) +
      (c1.query_cache_misses - c0.query_cache_misses));
  lv.Set("core.query_cache_hit_frac",
         cache_lookups > 0
             ? static_cast<double>(c1.query_cache_hits - c0.query_cache_hits) /
                   cache_lookups
             : 0.0);
  const double fetches =
      static_cast<double>(c1.origin_fetches - c0.origin_fetches);
  lv.Set("core.prediction_cache_hit_frac",
         fetches > 0 ? static_cast<double>(c1.prediction_cache_hits -
                                           c0.prediction_cache_hits) /
                           fetches
                     : 0.0);
  lv.Set("core.prefetches", static_cast<double>(c1.prefetches - c0.prefetches));
  lv.Set("core.path_prefetches",
         static_cast<double>(c1.path_prefetches - c0.path_prefetches));
  lv.Set("core.consistency_polls",
         static_cast<double>(c1.consistency_polls - c0.consistency_polls));
  lv.Set("core.rebalances", static_cast<double>(c1.rebalances - c0.rebalances));
  lv.Set("core.admission_rejections",
         static_cast<double>(c1.admission_rejections - c0.admission_rejections));
  AddCoreLayer(core, lv, report);

  double served[4];
  double served_total = 0.0;
  for (int i = 0; i < 4; ++i) {
    served[i] = static_cast<double>(after.served_from[i] - before.served_from[i]);
    served_total += served[i];
  }
  served_total = std::max(1.0, served_total);
  lv.Set("storage.memory_hit_frac", served[0] / served_total);
  lv.Set("storage.disk_hit_frac", served[1] / served_total);
  lv.Set("storage.origin_serve_frac", served[3] / served_total);
  if (!after.tiers.empty() && after.tiers[0].capacity_bytes > 0) {
    lv.Set("storage.mem_used_frac",
           static_cast<double>(after.tiers[0].used_bytes) /
               static_cast<double>(after.tiers[0].capacity_bytes));
  }
  const char* tier_names[] = {"memory", "disk", "tertiary"};
  for (size_t t = 0; t < after.tiers.size() && t < 3; ++t) {
    lv.Set(StrFormat("storage.resident_objects.%s", tier_names[t]),
           static_cast<double>(after.tiers[t].resident_objects));
  }
  lv.Set("net.origin_fetch_retries",
         static_cast<double>(c1.fetch_retries - c0.fetch_retries));
  lv.Set("net.origin_fetches", fetches);

  AddWorkloadLayer(wire.a, b, lv, report);
  report.spans = b.spans;
  report.spans.insert(report.spans.end(), cl.spans.begin(), cl.spans.end());
  report.spans.insert(report.spans.end(), core.spans.begin(), core.spans.end());
  lv.Set("trace.spans", static_cast<double>(report.spans.size()));
  lv.Emit(report);
}

void RunFleetTraced(const Inputs& in, const Args& args,
                    const std::string& scratch, Report& report) {
  auto fleet = StartFleet(scratch + "/fleet");
  report.Account(Warmup(in, {fleet->gateway->port()}, true), "warm-up");
  QuiescedNodeCounters(*fleet, report);

  const auto& gstats = fleet->gateway->stats();
  const auto& pstats = fleet->gateway->pool().stats();
  const uint64_t peer0 = gstats.peer_failovers.load();
  const uint64_t origin0 = gstats.origin_fallbacks.load();
  const uint64_t errors0 = pstats.transport_errors.load();
  std::vector<double> node_cpu0;
  for (const auto& node : fleet->nodes) node_cpu0.push_back(ProcCpuS(node.pid()));

  WirePhases wire = DriveTracedWire(
      BasePlan(in, {fleet->gateway->port()}, true), args.seconds);
  report.Account(wire.a, "gateway (untraced)");
  report.Account(wire.b, "gateway (traced)");
  double node_cpu_max = 0.0;
  for (size_t n = 0; n < fleet->nodes.size(); ++n) {
    node_cpu_max =
        std::max(node_cpu_max, ProcCpuS(fleet->nodes[n].pid()) - node_cpu0[n]);
  }

  // The direct-node depth: the same ops sent straight to the node the ring
  // names first for their key (queries to node 0).
  std::vector<WireOp> direct = in.wire;
  auto node_index = [](const std::vector<std::string>& replicas) -> uint32_t {
    if (replicas.empty()) return 0;
    return static_cast<uint32_t>(
        std::strtoul(replicas[0].c_str() + std::strlen("node-"), nullptr, 10));
  };
  for (size_t i = 0; i < direct.size(); ++i) {
    const wl::Op& op = in.ops[i];
    if (direct[i].cls == kPage) {
      direct[i].port_index = node_index(
          fleet->gateway->ReplicasForKey(std::to_string(op.page)));
    } else if (direct[i].cls == kModify) {
      direct[i].port_index = node_index(
          fleet->gateway->ReplicasForRaw(std::to_string(op.raw)));
    }
  }
  LoadPlan plan = BasePlan(in, fleet->NodePorts(), false);
  plan.ops = &direct;
  plan.query_slots = 1;  // One shard per node.
  plan.depth = "node";
  plan.parent_depth = "gateway";
  plan.first_op = wire.b_first_op;
  plan.seconds = 0.25 * args.seconds;
  plan.trace = true;
  LoadResult nodes = DriveWire(plan);
  report.Account(nodes, "direct node");

  LayerValues lv;
  lv.SetDiff("gateway.self_us_p50", wire.b.lat_us[kPage],
             nodes.lat_us[kPage], 0.5, report);
  // Read at p90: the traced phase sees a few hundred modifies, too few
  // for a p99.
  lv.SetDiff("gateway.modify_fanout_us_p90", wire.b.lat_us[kModify],
             nodes.lat_us[kModify], 0.90, report);
  lv.Set("gateway.node_cpu_s_max", node_cpu_max);
  lv.Set("gateway.rung_peer",
         static_cast<double>(gstats.peer_failovers.load() - peer0));
  lv.Set("gateway.rung_origin",
         static_cast<double>(gstats.origin_fallbacks.load() - origin0));
  lv.Set("gateway.upstream_reconnects",
         static_cast<double>(pstats.transport_errors.load() - errors0));

  const std::vector<wl::Op> ops = Rotate(in.ops, wire.b_first_op);
  const std::vector<wl::Op> served_ops = ServedOps(in.ops, wire);
  CoreDepthPlan cplan;
  cplan.options = ShardOptions(1);
  cplan.history = {&in.warmup_ops, &served_ops};
  cplan.ops = &ops;
  cplan.first_request = wire.b_first_op + 1;
  const auto* gateway = fleet->gateway.get();
  cplan.owns = [gateway](cbfww::corpus::PageId page) {
    auto replicas = gateway->ReplicasForKey(std::to_string(page));
    return !replicas.empty() && replicas[0] == "node-0";
  };
  cplan.search_terms = in.search_terms;
  cplan.wal_dir = scratch + "/core-wal";
  cplan.seconds = 0.25 * args.seconds;
  cplan.trace = true;
  CoreDepthResult core = ReplayCore(cplan);
  AddCoreLayer(core, lv, report);
  lv.Set("server.parse_ns_per_req", ParseNsPerRequest(in.wire));

  AddWorkloadLayer(wire.a, wire.b, lv, report);
  report.spans = wire.b.spans;
  report.spans.insert(report.spans.end(), nodes.spans.begin(),
                      nodes.spans.end());
  report.spans.insert(report.spans.end(), core.spans.begin(), core.spans.end());
  lv.Set("trace.spans", static_cast<double>(report.spans.size()));
  lv.Emit(report);
}

// ----- Output -----

std::string HostJson() {
  utsname uts{};
  uname(&uts);
  const char* commit = std::getenv("CBFWW_GIT_COMMIT");
  std::ostringstream os;
  os << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"cpu_model\":\""
     << JsonEscape(ReadFirstMatch("/proc/cpuinfo", "model name"))
     << "\",\"kernel\":\"" << JsonEscape(uts.release) << "\",\"compiler\":\""
     << CBFWW_PERFBENCH_COMPILER << "\",\"build_type\":\""
     << CBFWW_PERFBENCH_BUILD_TYPE << "\",\"git_commit\":\""
     << JsonEscape(commit != nullptr ? commit : "unknown") << "\"}";
  return os.str();
}

std::string ConfigJson(const Workload& w) {
  std::ostringstream os;
  os << "{\"connections\":" << kShape.connections
     << ",\"io_threads\":" << kShape.io_threads
     << ",\"shards\":" << kShape.shards;
  if (w.fleet) {
    os << ",\"fleet_nodes\":" << kFleetNodes
       << ",\"fleet_shards_per_node\":1,\"replication\":" << kFleetReplication;
  }
  os << ",\"memory_tier_mb\":" << (kMemoryBytes >> 20)
     << ",\"disk_tier_mb\":" << (kDiskBytes >> 20)
     << ",\"spec\":\"bench/specs/" << kSpecFile << "\""
     << ",\"loop\":\"closed\"";
  os << ",\"flush_policy\":\"" << (w.fleet ? kFlushPolicy : "no WAL") << "\""
     << ",\"checkpoint_every_events\":" << (w.fleet ? kCheckpointEvery : 0)
     << ",\"warmup_ops\":" << kWarmupOps
     << ",\"setup_repeats\":" << kSetupRepeats
     << ",\"corpus\":\"12 sites x 250 pages, seed " << kCorpusSeed << "\"}";
  return os.str();
}

int Finish(const Args& args, const Workload& w, Report& report) {
  std::sort(report.generator_cpus.begin(), report.generator_cpus.end());
  for (const Metric& m : report.metrics) {
    if (!ValidMetricName(m.name)) {
      std::fprintf(stderr, "invalid metric name %s\n", m.name.c_str());
      return 2;
    }
    if (m.samples > 0) {
      std::printf("  %-34s %14.4f %-7s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& p : report.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }
  for (const std::string& m : report.missing) {
    std::printf("  refused (too few samples): %s\n", m.c_str());
  }

  std::ostringstream metrics;
  metrics << "{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    metrics << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
            << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  metrics << "}";

  std::filesystem::create_directories(args.out_dir);
  const std::string stem = StrFormat("%s/%s-seed%llu-trace%d", args.out_dir.c_str(),
                                     w.name.c_str(),
                                     static_cast<unsigned long long>(args.seed),
                                     args.trace ? 1 : 0);
  {
    std::ofstream out(stem + ".json");
    out << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
        << ",\"seconds\":" << JsonNumber(args.seconds)
        << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"host\":"
        << HostJson() << ",\"config\":" << ConfigJson(w)
        << ",\"generator_cpus\":[";
    for (size_t i = 0; i < report.generator_cpus.size(); ++i) {
      out << (i ? "," : "") << report.generator_cpus[i];
    }
    out << "],\"correct\":" << (report.correct ? "true" : "false")
        << ",\"attempted\":" << report.attempted
        << ",\"failed\":" << report.failed << ",\"problems\":[";
    for (size_t i = 0; i < report.problems.size(); ++i) {
      out << (i ? "," : "") << "\"" << JsonEscape(report.problems[i]) << "\"";
    }
    out << "],\"refused\":[";
    for (size_t i = 0; i < report.missing.size(); ++i) {
      out << (i ? "," : "") << "\"" << JsonEscape(report.missing[i]) << "\"";
    }
    out << "],\"samples\":{";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
      out << (i ? "," : "") << "\"" << report.metrics[i].name
          << "\":" << report.metrics[i].samples;
    }
    out << "},\"setup_s_samples\":[";
    for (size_t i = 0; i < report.setup_s.size(); ++i) {
      out << (i ? "," : "") << JsonNumber(report.setup_s[i]);
    }
    out << "],\"metrics\":" << metrics.str()
        << "}\n";
  }
  if (args.trace) {
    // Spans are kept in memory during the run and written once, here.
    std::ofstream out(StrFormat("%s/trace-%s.jsonl", args.out_dir.c_str(),
                                w.name.c_str()));
    for (const Span& s : report.spans) {
      out << "{\"request\":" << s.request << ",\"name\":\"" << s.name
          << "\",\"parent\":\"" << s.parent << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }
  std::printf("  result file: %s.json\n", stem.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics.str().c_str());
  std::fflush(stdout);
  if (!report.correct) return 1;
  return report.missing.empty() ? 0 : 3;
}

/// Names and units of every metric the benchmark can report, one per line
/// ("e2e" or "layer", name, unit), for the tests to hold against
/// BENCHMARK.json.
int ListMetrics() {
  for (const auto& entry : kEndToEndMetrics) {
    std::printf("e2e %s %s\n", entry[0], entry[1]);
  }
  for (const auto& entry : kLayerMetrics) {
    std::printf("layer %s %s\n", entry[0], entry[1]);
  }
  return 0;
}

/// Checks of the statistics rules the metrics rely on.
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what);
      ++failures;
    }
  };
  auto ramp = [](size_t n) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;
  };
  expect(!Percentile(ramp(999), 0.99).has_value(),
         "p99 of 999 samples is refused (9 beyond)");
  expect(Percentile(ramp(1000), 0.99) == 990.0,
         "p99 of 1000 samples is the 990th smallest");
  expect(!Percentile(ramp(19), 0.50).has_value(),
         "p50 of 19 samples is refused (9 beyond)");
  expect(Percentile(ramp(20), 0.50) == 10.0, "p50 of 20 samples is the 10th");
  expect(!Percentile({}, 0.5).has_value(), "empty input is refused");
  std::vector<double> lat = ramp(5000);
  std::vector<uint64_t> done(lat.size());
  for (size_t i = 0; i < done.size(); ++i) done[i] = i;
  expect(WindowedPercentile(lat, done, 0.99, 5).has_value(),
         "5000 samples support five p99 windows");
  expect(!WindowedPercentile(ramp(999), std::vector<uint64_t>(999, 0), 0.99, 5)
              .has_value(),
         "windowed p99 of 999 samples is refused");
  expect(ValidMetricName("storage.resident_objects.memory"), "dotted name");
  expect(ValidMetricName("page_p99_us"), "plain name");
  expect(!ValidMetricName("page p99"), "space rejected");
  expect(!ValidMetricName(".leading_dot"), "leading dot rejected");
  expect(!ValidMetricName(""), "empty name rejected");
  for (const auto& entry : kEndToEndMetrics) {
    expect(ValidMetricName(entry[0]), entry[0]);
  }
  for (const auto& entry : kLayerMetrics) {
    expect(ValidMetricName(entry[0]), entry[0]);
  }
  std::printf("%s\n", failures == 0 ? "self-test ok" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.list_metrics) return ListMetrics();
  if (args.self_test) return SelfTest();
  Inputs in;
  const Workload& w = *FindWorkload(args.workload);
  auto spec = LoadSpec();
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  in.corpus = std::make_unique<cbfww::corpus::WebCorpus>(BenchCorpusOptions());

  if (args.dump_ops > 0) {
    for (const wl::Op& op : GenerateOps(*spec, *in.corpus, args.seed, args.dump_ops)) {
      std::printf("%s\n", DescribeOp(op).c_str());
    }
    return 0;
  }

  // Inputs come from the seed alone; the warm-up stream is a distinct
  // stream of the same workload.
  in.warmup_ops = GenerateOps(*spec, *in.corpus, args.seed ^ 0x5741524D5550ull,
                              kWarmupOps);
  in.warmup_wire = RenderWire(in.warmup_ops);
  in.ops = GenerateOps(*spec, *in.corpus, args.seed, PoolSize(args.seconds));
  in.wire = RenderWire(in.ops);
  in.search_terms = SearchTerms(*in.corpus, args.seed, 16);

  ScratchDir scratch(StrFormat("%s/tmp-%d", args.out_dir.c_str(),
                               static_cast<int>(getpid())));

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report report;
  if (w.fleet) {
    args.trace ? RunFleetTraced(in, args, scratch.path, report)
               : RunFleet(in, args, scratch.path, report);
  } else {
    args.trace ? RunInProcTraced(in, args, report) : RunInProc(in, args, report);
  }
  return Finish(args, w, report);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
