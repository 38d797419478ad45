#include "load.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>

#include <sched.h>

#include "server/http_client.h"
#include "stats.h"
#include "util/strings.h"

namespace perfbench {

namespace wl = cbfww::workload;
using cbfww::StrFormat;

const char* ClsName(Cls cls) {
  switch (cls) {
    case kPage: return "page";
    case kQuery: return "query";
    case kModify: return "modify";
  }
  return "page";
}

const char* SpanName(std::string_view depth, Cls cls) {
  static const char* const kNames[][kNumCls] = {
      {"wire.page", "wire.query", "wire.modify"},
      {"gateway.page", "gateway.query", "gateway.modify"},
      {"node.page", "node.query", "node.modify"},
      {"cluster.page", "cluster.query", "cluster.modify"},
      {"core.page", "core.query", "core.modify"}};
  static const char* const kDepths[] = {"wire", "gateway", "node", "cluster",
                                        "core"};
  for (size_t d = 0; d < std::size(kDepths); ++d) {
    if (depth == kDepths[d]) return kNames[d][cls];
  }
  return kNames[0][cls];
}

Cls ClassOf(wl::OpType type) {
  switch (type) {
    case wl::OpType::kPageVisit: return kPage;
    case wl::OpType::kQuery:
    case wl::OpType::kScan: return kQuery;
    case wl::OpType::kIngest: return kModify;
  }
  return kPage;
}

std::vector<WireOp> RenderWire(const std::vector<wl::Op>& ops) {
  // Concurrent connections interleave, so no explicit ?t=: the server's
  // logical clock stamps each request.
  std::vector<WireOp> wire(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const wl::Op& op = ops[i];
    WireOp& w = wire[i];
    w.cls = ClassOf(op.type);
    switch (w.cls) {
      case kPage:
        w.method = "GET";
        w.page = op.page;
        w.target = StrFormat("/page/%llu?user=%u&session=%lld",
                             static_cast<unsigned long long>(op.page), op.user,
                             static_cast<long long>(op.session));
        if (op.via_link) w.target += "&via_link=1";
        break;
      case kQuery:
        w.method = "POST";
        w.target = op.use_index ? "/query" : "/query?use_index=0";
        w.body = op.query_text;
        break;
      case kModify:
        w.method = "POST";
        w.target =
            StrFormat("/modify/%llu", static_cast<unsigned long long>(op.raw));
        break;
    }
  }
  return wire;
}

void LoadResult::Problem(std::string text) {
  if (problems.size() < 8) problems.push_back(std::move(text));
}

void LoadResult::Merge(LoadResult&& other) {
  for (int c = 0; c < kNumCls; ++c) {
    lat_us[c].insert(lat_us[c].end(), other.lat_us[c].begin(),
                     other.lat_us[c].end());
    done_ns[c].insert(done_ns[c].end(), other.done_ns[c].begin(),
                      other.done_ns[c].end());
    ok[c] += other.ok[c];
  }
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (std::string& p : other.problems) Problem(std::move(p));
  page_serves.insert(page_serves.end(), other.page_serves.begin(),
                     other.page_serves.end());
  gen_lag_us.insert(gen_lag_us.end(), other.gen_lag_us.begin(),
                    other.gen_lag_us.end());
  completed += other.completed;
  client_cpu_s += other.client_cpu_s;
  for (int cpu : other.cpus) {
    if (std::find(cpus.begin(), cpus.end(), cpu) == cpus.end()) {
      cpus.push_back(cpu);
    }
  }
  std::sort(cpus.begin(), cpus.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

namespace {

/// Value of `"key":<number>` in a flat JSON object, or -1.
double JsonField(std::string_view body, std::string_view key) {
  std::string needle = "\"" + std::string(key) + "\":";
  size_t at = body.find(needle);
  if (at == std::string_view::npos) return -1.0;
  return std::strtod(body.data() + at + needle.size(), nullptr);
}

size_t Count(std::string_view haystack, std::string_view needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string_view::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Checks one response against the request it answers (op `op` of the
/// phase's stream); records it in `out`. Returns false when the op failed or answered wrongly.
bool CheckResponse(const LoadPlan& plan, const WireOp& w, uint64_t op,
                   const cbfww::server::ClientResponse& response,
                   LoadResult& out) {
  const int want = w.cls == kModify ? 202 : 200;
  if (response.status != want) {
    out.failed++;
    out.Problem(StrFormat("%s %s -> %d (want %d)", w.method, w.target.c_str(),
                          response.status, want));
    return false;
  }
  std::string_view body = response.body;
  switch (w.cls) {
    case kPage: {
      // The answer must name the requested page.
      std::string head =
          StrFormat("{\"page\":%llu", static_cast<unsigned long long>(w.page));
      if (body.rfind(head, 0) != 0 || body.size() <= head.size() ||
          (body[head.size()] != ',' && body[head.size()] != '}')) {
        out.wrong++;
        out.Problem("page answer names another page: " + w.target);
        return false;
      }
      out.page_serves.push_back(LoadResult::PageServe{
          op, std::max(0.0, JsonField(body, "latency_us")),
          static_cast<uint32_t>(std::max(0.0, JsonField(body, "from_origin")))});
      return true;
    }
    case kQuery: {
      // Every per-shard (or, through the gateway, per-node) slot is ok.
      bool all_ok;
      if (plan.gateway) {
        all_ok = body.ends_with("\"nodes_failed\":0}") &&
                 Count(body, "\"ok\":true") == plan.query_slots &&
                 Count(body, ",\"errors\":[]}") == plan.query_slots;
      } else {
        std::string tail =
            StrFormat("\"shards\":%u,\"errors\":[]}", plan.query_slots);
        all_ok = body.ends_with(tail);
      }
      if (!all_ok) {
        out.wrong++;
        out.Problem("query with a failed slot: " +
                    std::string(body.substr(0, 200)));
        return false;
      }
      return true;
    }
    case kModify:
      return true;
  }
  return true;
}

}  // namespace

LoadResult DriveWire(const LoadPlan& plan) {
  // One thread per connection, each a closed loop: its next op goes out
  // when its previous answer is in. Ops are taken in stream order from a
  // shared cursor.
  const std::vector<WireOp>& ops = *plan.ops;
  const uint32_t threads = std::max<uint32_t>(1, plan.connections);
  std::vector<LoadResult> per_thread(threads);
  std::atomic<uint64_t> next{0};
  const uint64_t start_ns = NowNs() + 2'000'000;  // Let threads connect.
  const uint64_t stop_ns =
      start_ns + static_cast<uint64_t>(plan.seconds * 1e9);

  std::vector<std::thread> clients;
  for (uint32_t tid = 0; tid < threads; ++tid) {
    clients.emplace_back([&, tid] {
      LoadResult& out = per_thread[tid];
      const double cpu0 = ThreadCpuS();
      cbfww::server::ClientOptions copts;
      copts.connect_timeout_ms = 2000;
      copts.read_timeout_ms = 5000;
      copts.write_timeout_ms = 5000;
      // One connection per port (direct-to-node routing uses several).
      std::vector<std::unique_ptr<cbfww::server::SimpleHttpClient>> conns;
      for (uint16_t port : plan.ports) {
        auto client = std::make_unique<cbfww::server::SimpleHttpClient>(copts);
        if (!client->Connect("127.0.0.1", port).ok()) {
          out.failed++;
          out.Problem(StrFormat("connect to port %u failed", port));
          return;
        }
        conns.push_back(std::move(client));
      }
      auto note_cpu = [&out] {
        const int cpu = sched_getcpu();
        if (std::find(out.cpus.begin(), out.cpus.end(), cpu) ==
            out.cpus.end()) {
          out.cpus.push_back(cpu);
        }
      };
      note_cpu();
      while (NowNs() < start_ns) std::this_thread::yield();

      uint64_t prev_done_ns = 0;
      for (uint64_t k = next.fetch_add(1);; k = next.fetch_add(1)) {
        if (plan.max_ops != 0 ? k >= plan.max_ops : NowNs() >= stop_ns) break;
        const WireOp& w = ops[(plan.first_op + k) % ops.size()];
        const uint64_t request_id = plan.first_op + k + 1;
        std::string headers;
        if (plan.trace) {
          headers = StrFormat("X-Cbfww-Request-Id: pb%llu\r\n",
                              static_cast<unsigned long long>(request_id));
        }
        auto& conn = *conns[plan.ports.size() == 1 ? 0 : w.port_index];
        out.attempted++;
        const uint64_t issue_ns = NowNs();
        if (prev_done_ns != 0) {
          out.gen_lag_us.push_back(
              static_cast<double>(issue_ns - prev_done_ns) / 1e3);
        }
        auto response = conn.RoundTrip(w.method, w.target, w.body, headers);
        const uint64_t done_ns = NowNs();
        prev_done_ns = done_ns;
        if (!response.ok()) {
          out.failed++;
          out.Problem(StrFormat("%s %s: %s", w.method, w.target.c_str(),
                                response.status().ToString().c_str()));
          if (!conn.connected()) break;  // The rest of this slot is lost.
        } else if (CheckResponse(plan, w, k, *response, out)) {
          if (plan.trace &&
              response->Header("x-cbfww-request-id") !=
                  StrFormat("pb%llu",
                            static_cast<unsigned long long>(request_id))) {
            out.wrong++;
            out.Problem("request id not echoed: " + w.target);
          } else {
            out.ok[w.cls]++;
            out.completed++;
            out.lat_us[w.cls].push_back(
                static_cast<double>(done_ns - issue_ns) / 1e3);
            out.done_ns[w.cls].push_back(done_ns);
            if (plan.trace) {
              out.spans.push_back(Span{request_id,
                                       SpanName(plan.depth, w.cls), issue_ns,
                                       done_ns, plan.parent_depth});
            }
          }
        }
        if ((out.attempted & 1023) == 0) note_cpu();
      }
      out.client_cpu_s = ThreadCpuS() - cpu0;
    });
  }
  for (std::thread& t : clients) t.join();

  LoadResult total;
  for (LoadResult& r : per_thread) total.Merge(std::move(r));
  total.start_ns = start_ns;
  total.wall_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return total;
}

}  // namespace perfbench
