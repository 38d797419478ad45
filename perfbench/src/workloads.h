#ifndef CBFWW_PERFBENCH_WORKLOADS_H_
#define CBFWW_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/web_corpus.h"
#include "util/result.h"
#include "workload/op_generator.h"
#include "workload/workload_spec.h"

namespace perfbench {

/// The system under test, identical for every in-process workload: two
/// client connections, each dealt to its own IO thread, and two shard
/// workers. A closed-loop client and its IO thread take turns, so the four
/// busy threads fit a 4-core host. With one IO thread for both
/// connections, a modify waiting behind the other connection's large query
/// answer put the modify p99 on a knee, and it moved by 40-60% between runs.
struct NodeShape {
  uint32_t connections = 2;
  uint32_t io_threads = 2;
  uint32_t shards = 2;
};
inline constexpr NodeShape kShape{};

/// `fleet`: a gateway over this many forked single-shard nodes with one IO
/// thread each (the gateway's own connection threads share the host), each
/// write acknowledged by this many replicas.
inline constexpr uint32_t kFleetNodes = 2;
inline constexpr uint32_t kFleetNodeIoThreads = 1;
inline constexpr uint32_t kFleetReplication = 2;

/// The corpus is a fixed input (12 sites x 250 pages, 7014 raw objects,
/// 741 MB of simulated bytes); --seed varies only the op stream.
inline constexpr uint64_t kCorpusSeed = 2003;

/// WAL flush policy as shipped: one fflush per committed event batch, no
/// fsync, and no automatic checkpoints on the serving path. The core depth
/// replay cuts a timed checkpoint every kCheckpointEvery events.
inline constexpr const char* kFlushPolicy =
    "per-shard WAL, fflush per event batch, no fsync, no automatic "
    "checkpoints";
inline constexpr uint64_t kCheckpointEvery = 2000;

/// Ops replayed before timing starts (part of setup).
inline constexpr uint64_t kWarmupOps = 1500;

/// Cluster-total tier capacities, divided across shards. The 741 MB
/// corpus is 31x the memory tier.
inline constexpr uint64_t kMemoryBytes = 24ull << 20;
inline constexpr uint64_t kDiskBytes = 256ull << 20;

/// The repository spec file, under bench/specs/, whose op mix and key
/// distribution every workload sends: the traffic the benchmark was sized
/// from. The workloads differ only in what serves it.
inline constexpr const char* kSpecFile = "read_heavy.spec";

struct Workload {
  std::string name;
  /// Gateway over forked durable nodes instead of an in-process server.
  bool fleet = false;
};

const std::vector<Workload>& Workloads();
/// nullptr when unknown.
const Workload* FindWorkload(std::string_view name);

/// Reads kSpecFile. Refuses a spec whose corpus is not
/// BenchCorpusOptions(): every workload shares the fixed corpus.
cbfww::Result<cbfww::workload::WorkloadSpec> LoadSpec();

cbfww::corpus::CorpusOptions BenchCorpusOptions();

/// `k` title terms of distinct pages, chosen by `seed`: the index layer's
/// SearchPages probes.
std::vector<std::string> SearchTerms(const cbfww::corpus::WebCorpus& corpus,
                                      uint64_t seed, size_t k);

/// The deterministic op stream of one run: the generator's stream for
/// `spec` at `seed`.
std::vector<cbfww::workload::Op> GenerateOps(
    const cbfww::workload::WorkloadSpec& spec,
    const cbfww::corpus::WebCorpus& corpus, uint64_t seed, uint64_t n);

/// One line per op, every field: the byte-identity witness for tests.
std::string DescribeOp(const cbfww::workload::Op& op);

}  // namespace perfbench

#endif  // CBFWW_PERFBENCH_WORKLOADS_H_
