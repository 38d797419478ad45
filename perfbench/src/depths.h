#ifndef CBFWW_PERFBENCH_DEPTHS_H_
#define CBFWW_PERFBENCH_DEPTHS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/warehouse_cluster.h"
#include "core/warehouse.h"
#include "load.h"
#include "workload/op_generator.h"
#include "workloads.h"

namespace perfbench {

/// Every sample class present in the stream gets at least this many
/// samples at the in-process depths (a p99 needs 1000, see Percentile),
/// however long that takes up to kDepthTimeCap times the phase budget.
inline constexpr uint64_t kDepthMinSamples = 1000;
inline constexpr double kDepthTimeCap = 3.0;

/// The cluster depth: the op stream (ops[i] is request first_request + i)
/// dispatched straight into the WarehouseCluster (TryServePage /
/// TryServeQuery / TryDispatch on lane 0), timed from dispatch to ticket
/// completion, with `window` calls in flight. The caller must own lane 0
/// (the server is stopped).
struct ClusterDepthResult {
  std::vector<double> lat_us[kNumCls];
  std::vector<cbfww::core::PageVisit> visits;  // Sample, for render timing.
  std::vector<Span> spans;
  uint64_t failed = 0;
};
ClusterDepthResult DriveCluster(cbfww::cluster::WarehouseCluster& cluster,
                                const std::vector<cbfww::workload::Op>& ops,
                                uint64_t first_request, double seconds,
                                uint32_t window, bool trace);

/// The core depth: one shard's partition of the op stream replayed on a
/// standalone Warehouse configured as that shard, every public call timed.
struct CoreDepthResult {
  std::vector<double> lat_us[kNumCls];
  std::vector<double> tick_us;
  std::vector<double> checkpoint_ms;
  std::vector<double> search_us;
  std::vector<Span> spans;
  uint64_t candidates = 0;
  uint64_t rows = 0;
  uint64_t queries = 0;
  uint64_t indexed_queries = 0;
  uint64_t events = 0;
  uint64_t wal_bytes = 0;
  uint64_t failed = 0;
};
struct CoreDepthPlan {
  /// Warehouse options of the shard being replayed.
  cbfww::core::WarehouseOptions options;
  /// Replayed untimed, in order, before the timed ops: the ops the shard
  /// being compared against had served before its own timed phase, so the
  /// two depths start from the same placement state.
  std::vector<const std::vector<cbfww::workload::Op>*> history;
  const std::vector<cbfww::workload::Op>* ops = nullptr;
  /// Request id of ops[0] (spans share ids with the wire depth).
  uint64_t first_request = 1;
  /// Which page ops belong to the replayed shard.
  std::function<bool(cbfww::corpus::PageId)> owns;
  std::vector<std::string> search_terms;
  /// Non-empty: WAL + explicit checkpoints every kCheckpointEvery events.
  std::string wal_dir;
  double seconds = 1.0;
  bool trace = false;
};
CoreDepthResult ReplayCore(const CoreDepthPlan& plan);

/// Cluster options of the node shape: `shards` shards sharing the tier
/// capacities, `lanes` producer lanes, a WAL when `wal_dir` is non-empty.
cbfww::cluster::ClusterOptions BenchClusterOptions(uint32_t shards,
                                                   uint32_t lanes,
                                                   const std::string& wal_dir);

/// Nanoseconds per HttpParser request over the run's own request bytes,
/// and per wire_format page render over the run's own page visits.
double ParseNsPerRequest(const std::vector<WireOp>& ops);
double RenderNsPerPage(const std::vector<cbfww::core::PageVisit>& visits);

}  // namespace perfbench

#endif  // CBFWW_PERFBENCH_DEPTHS_H_
