#ifndef CBFWW_PERFBENCH_LOAD_H_
#define CBFWW_PERFBENCH_LOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload/op_generator.h"

namespace perfbench {

/// Op classes the end-to-end metrics are reported by (scans count as
/// queries: both are POST /query).
enum Cls : uint8_t { kPage = 0, kQuery = 1, kModify = 2 };
inline constexpr int kNumCls = 3;
const char* ClsName(Cls cls);
Cls ClassOf(cbfww::workload::OpType type);

/// One pre-rendered wire request (client threads only do IO).
struct WireOp {
  Cls cls = kPage;
  const char* method = "GET";
  std::string target;
  std::string body;
  uint64_t page = 0;  // kPage: the page the response must name.
  /// Index into LoadPlan::ports (direct-to-node routing; 0 otherwise).
  uint32_t port_index = 0;
};
std::vector<WireOp> RenderWire(const std::vector<cbfww::workload::Op>& ops);

/// "<depth>.<class>" for the depths wire, gateway, node, cluster and core.
const char* SpanName(std::string_view depth, Cls cls);

/// One span of the traced run: a timed call at one depth. The spans of one
/// op share `request` at every depth; `parent` is the request's span at the
/// depth above (0 at the wire), so a layer's self time is its depth minus
/// the depth below for the same op class.
struct Span {
  uint64_t request = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  const char* parent = "";
};

/// What a wire load phase observed.
struct LoadResult {
  std::vector<double> lat_us[kNumCls];
  /// Completion time of each latency sample (same order as lat_us).
  std::vector<uint64_t> done_ns[kNumCls];
  uint64_t attempted = 0;
  uint64_t ok[kNumCls] = {0, 0, 0};
  /// Transport errors, timeouts, 503 sheds and unexpected statuses.
  uint64_t failed = 0;
  /// Responses with the expected status but the wrong content: a page
  /// naming another page, a query with a failed shard or node slot, a
  /// mismatched echoed request id.
  uint64_t wrong = 0;
  std::vector<std::string> problems;  // First few failures, for the log.
  /// The simulated placement outcome of each answered page read, by its
  /// position in the op stream.
  struct PageServe {
    uint64_t op = 0;
    double sim_latency_us = 0.0;
    uint32_t from_origin = 0;
  };
  std::vector<PageServe> page_serves;
  /// Generator gap: send minus the previous completion on the connection
  /// (the load generator's own turnaround, which a closed loop adds to
  /// every op).
  std::vector<double> gen_lag_us;
  uint64_t completed = 0;
  uint64_t start_ns = 0;
  double wall_s = 0.0;
  double client_cpu_s = 0.0;
  std::vector<int> cpus;  // CPUs the generator threads were seen on.
  std::vector<Span> spans;

  void Merge(LoadResult&& other);
  void Problem(std::string text);
};

struct LoadPlan {
  std::vector<uint16_t> ports;
  const std::vector<WireOp>* ops = nullptr;
  /// Ops are taken in order from `first_op`, wrapping around the pool.
  uint64_t first_op = 0;
  uint32_t connections = 2;
  /// Closed loop over `connections`: each sends its next op when the
  /// previous one is answered, until this much time has passed.
  double seconds = 1.0;
  /// Stop after this many ops even if time remains (0 = no cap). Used for
  /// the fixed-size warm-up.
  uint64_t max_ops = 0;
  /// Record spans and send X-Cbfww-Request-Id.
  bool trace = false;
  /// Span name prefix ("wire", "gateway", "node").
  const char* depth = "wire";
  const char* parent_depth = "";
  /// Expected per-shard slots in a direct /query answer, or nodes in a
  /// gateway scatter answer (gateway = true).
  uint32_t query_slots = 1;
  bool gateway = false;
};

LoadResult DriveWire(const LoadPlan& plan);

}  // namespace perfbench

#endif  // CBFWW_PERFBENCH_LOAD_H_
