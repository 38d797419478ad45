#include "depths.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>

#include "corpus/web_corpus.h"
#include "net/origin_server.h"
#include "server/http_parser.h"
#include "server/wire_format.h"
#include "stats.h"
#include "util/hash.h"
#include "util/strings.h"

namespace perfbench {

namespace wl = cbfww::workload;
namespace core = cbfww::core;
using cbfww::SimTime;

namespace {

bool Enough(const std::vector<double> (&lat)[kNumCls],
            const bool (&present)[kNumCls]) {
  for (int c = 0; c < kNumCls; ++c) {
    if (present[c] && lat[c].size() < kDepthMinSamples) return false;
  }
  return true;
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().find(".wal.") != std::string::npos) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

}  // namespace

cbfww::cluster::ClusterOptions BenchClusterOptions(uint32_t shards,
                                                   uint32_t lanes,
                                                   const std::string& wal_dir) {
  cbfww::cluster::ClusterOptions o;
  o.num_shards = shards;
  o.producer_lanes = lanes;
  o.warehouse.memory_bytes = kMemoryBytes / shards;
  o.warehouse.disk_bytes = kDiskBytes / shards;
  // No news feed: the op stream drives popularity itself.
  o.warehouse.enable_topic_sensor = false;
  if (!wal_dir.empty()) o.durability.dir = wal_dir;
  return o;
}

ClusterDepthResult DriveCluster(cbfww::cluster::WarehouseCluster& cluster,
                                const std::vector<wl::Op>& ops,
                                uint64_t first_request, double seconds,
                                uint32_t window, bool trace) {
  struct Pending {
    std::shared_ptr<cbfww::cluster::ServeTicket> ticket;
    std::atomic<uint64_t> done_ns{0};
    uint64_t issue_ns = 0;
    uint64_t request = 0;
    Cls cls = kPage;
  };
  ClusterDepthResult out;
  bool present[kNumCls] = {false, false, false};
  for (const wl::Op& op : ops) present[ClassOf(op.type)] = true;

  // Wire requests were stamped by the server's logical clock; continue
  // from the shards' latest time so per-shard time stays monotonic.
  SimTime now = 0;
  for (uint32_t s = 0; s < cluster.num_shards(); ++s) {
    now = std::max(now, cluster.shard(s).now());
  }

  std::deque<Pending> in_flight;
  auto retire_front = [&] {
    Pending& p = in_flight.front();
    while (p.done_ns.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    const uint64_t done = p.done_ns.load(std::memory_order_acquire);
    bool ok = true;
    if (p.cls == kQuery) {
      for (const auto& slot : p.ticket->query) ok = ok && slot.status.ok();
    }
    if (ok) {
      out.lat_us[p.cls].push_back(static_cast<double>(done - p.issue_ns) / 1e3);
      if (p.cls == kPage && out.visits.size() < 4096) {
        out.visits.push_back(p.ticket->visit);
      }
      if (trace) {
        out.spans.push_back(Span{p.request, SpanName("cluster", p.cls),
                                 p.issue_ns, done, "wire"});
      }
    } else {
      out.failed++;
    }
    in_flight.pop_front();
  };

  const uint64_t start_ns = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = 0;; ++i) {
    const uint64_t elapsed = NowNs() - start_ns;
    if (elapsed >= budget_ns &&
        (Enough(out.lat_us, present) ||
         elapsed >= static_cast<uint64_t>(kDepthTimeCap * budget_ns))) {
      break;
    }
    while (in_flight.size() >= window) retire_front();
    const wl::Op& op = ops[i % ops.size()];
    now += cbfww::kMillisecond;
    const Cls cls = ClassOf(op.type);
    const uint64_t issue_ns = NowNs();
    if (cls == kModify) {
      wl::Op event = op;
      event.time = now;
      if (!cluster.TryDispatch(wl::ToTraceEvent(event)).ok()) {
        out.failed++;
        continue;
      }
      const uint64_t done = NowNs();
      out.lat_us[kModify].push_back(static_cast<double>(done - issue_ns) / 1e3);
      if (trace) {
        out.spans.push_back(
            Span{first_request + i, SpanName("cluster", kModify), issue_ns,
                 done, "wire"});
      }
      continue;
    }
    auto ticket = std::make_shared<cbfww::cluster::ServeTicket>();
    Pending& p = in_flight.emplace_back();
    p.ticket = ticket;
    p.issue_ns = issue_ns;
    p.request = first_request + i;
    p.cls = cls;
    ticket->on_complete = [&p] {
      p.done_ns.store(NowNs(), std::memory_order_release);
    };
    cbfww::Status status;
    if (cls == kPage) {
      core::PageRequest request;
      request.page = op.page;
      request.user = op.user;
      request.session = op.session;
      request.via_link = op.via_link;
      request.now = now;
      status = cluster.TryServePage(request, ticket);
      if (!status.ok()) {
        in_flight.pop_back();  // Shed: the ticket never completes.
        out.failed++;
      }
    } else {
      core::QueryRunOptions qopts;
      qopts.use_index = op.use_index;
      status = cluster.TryServeQuery(op.query_text, qopts, ticket);
      // A shed slot still completes; retire_front counts it failed.
    }
  }
  while (!in_flight.empty()) retire_front();
  cluster.Drain();
  return out;
}

CoreDepthResult ReplayCore(const CoreDepthPlan& plan) {
  CoreDepthResult out;
  cbfww::corpus::WebCorpus corpus(BenchCorpusOptions());
  cbfww::net::OriginServer origin(&corpus, cbfww::net::NetworkModel());
  core::WarehouseOptions options = plan.options;
  if (!plan.wal_dir.empty()) {
    std::filesystem::create_directories(plan.wal_dir);
    options.durability.dir = plan.wal_dir;
    options.durability.checkpoint_every_events = 0;  // Timed explicitly.
  }
  core::Warehouse warehouse(&corpus, &origin, nullptr, options);
  if (!plan.wal_dir.empty() && !warehouse.OpenDurability().ok()) {
    out.failed++;
    return out;
  }

  bool present[kNumCls] = {false, false, false};
  auto mine = [&](const wl::Op& op) {
    return op.type != wl::OpType::kPageVisit || plan.owns(op.page);
  };
  for (const wl::Op& op : *plan.ops) {
    if (mine(op)) present[ClassOf(op.type)] = true;
  }

  SimTime base = 0;
  auto apply = [&](const wl::Op& op, bool timed, uint64_t request) {
    const SimTime now = base + op.time;
    const Cls cls = ClassOf(op.type);
    const uint64_t t0 = NowNs();
    uint64_t t_tick = t0;
    switch (cls) {
      case kPage: {
        // The shard worker's ServeRequest runs Tick first; timing Tick on
        // its own leaves ServeRequest's internal Tick a no-op.
        warehouse.Tick(now);
        t_tick = NowNs();
        core::PageRequest request;
        request.page = op.page;
        request.user = op.user;
        request.session = op.session;
        request.via_link = op.via_link;
        request.now = now;
        (void)warehouse.ServeRequest(request);
        break;
      }
      case kQuery: {
        auto result = warehouse.ExecuteQuery(
            op.query_text, core::QueryRunOptions{.use_index = op.use_index});
        if (!result.ok()) {
          out.failed++;
          return;
        }
        if (timed) {
          out.queries++;
          out.candidates += result->result.candidates_evaluated;
          out.rows += result->result.rows.size();
          if (result->result.used_index) out.indexed_queries++;
        }
        break;
      }
      case kModify: {
        wl::Op event = op;
        event.time = now;
        (void)warehouse.ProcessEvent(wl::ToTraceEvent(event));
        break;
      }
    }
    const uint64_t t1 = NowNs();
    if (!timed) return;
    out.events++;
    out.lat_us[cls].push_back(static_cast<double>(t1 - t0) / 1e3);
    if (cls == kPage) out.tick_us.push_back(static_cast<double>(t_tick - t0) / 1e3);
    if (plan.trace) {
      out.spans.push_back(Span{request, SpanName("core", cls), t0, t1,
                               "cluster"});
    }
    if (!plan.wal_dir.empty() && out.events % kCheckpointEvery == 0) {
      // Rotation starts a fresh WAL: count the old one's bytes first.
      out.wal_bytes += WalBytes(plan.wal_dir);
      const uint64_t c0 = NowNs();
      if (!warehouse.CheckpointNow().ok()) out.failed++;
      out.checkpoint_ms.push_back(static_cast<double>(NowNs() - c0) / 1e6);
    }
  };

  // Each stream's sim times start near 0: shift each one past the last.
  for (const std::vector<wl::Op>* stream : plan.history) {
    for (const wl::Op& op : *stream) {
      if (mine(op)) apply(op, /*timed=*/false, 0);
    }
    if (!stream->empty()) base += stream->back().time;
  }

  const uint64_t start_ns = NowNs();
  const uint64_t budget_ns = static_cast<uint64_t>(plan.seconds * 1e9);
  const std::vector<wl::Op>& ops = *plan.ops;
  for (size_t i = 0;; ++i) {
    if (i > 0 && i % ops.size() == 0) base += ops.back().time;
    const uint64_t elapsed = NowNs() - start_ns;
    if (elapsed >= budget_ns &&
        (Enough(out.lat_us, present) ||
         elapsed >= static_cast<uint64_t>(kDepthTimeCap * budget_ns))) {
      break;
    }
    const wl::Op& op = ops[i % ops.size()];
    if (mine(op)) apply(op, /*timed=*/true, plan.first_request + i);
  }

  // The index layer: popularity-aware search over the run's title terms.
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& term : plan.search_terms) {
      const uint64_t t0 = NowNs();
      auto hits = warehouse.SearchPages(term, 10);
      out.search_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      (void)hits;
    }
  }

  if (!plan.wal_dir.empty()) out.wal_bytes += WalBytes(plan.wal_dir);
  return out;
}

double ParseNsPerRequest(const std::vector<WireOp>& ops) {
  std::vector<std::string> raw;
  for (size_t i = 0; i < ops.size() && raw.size() < 2000; ++i) {
    const WireOp& w = ops[i];
    raw.push_back(cbfww::StrFormat(
        "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %zu\r\n\r\n",
        w.method, w.target.c_str(), w.body.size()) +
                  w.body);
  }
  if (raw.empty()) return 0.0;
  cbfww::server::HttpParser parser;
  uint64_t parsed = 0;
  const uint64_t t0 = NowNs();
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::string& bytes : raw) {
      parser.Reset();
      parser.Consume(bytes);
      if (parser.done()) ++parsed;
    }
  }
  const uint64_t t1 = NowNs();
  return parsed == 0 ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(parsed);
}

double RenderNsPerPage(const std::vector<core::PageVisit>& visits) {
  if (visits.empty()) return 0.0;
  size_t bytes = 0;
  const uint64_t t0 = NowNs();
  for (int rep = 0; rep < 5; ++rep) {
    for (const core::PageVisit& visit : visits) {
      bytes += cbfww::server::PageVisitToJson(visit, {}).size();
    }
  }
  const uint64_t t1 = NowNs();
  return bytes == 0 ? 0.0
                    : static_cast<double>(t1 - t0) /
                          static_cast<double>(5 * visits.size());
}

}  // namespace perfbench
