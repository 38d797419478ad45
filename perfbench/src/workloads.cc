#include "workloads.h"

#include <algorithm>

#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace wl = cbfww::workload;
using cbfww::StrFormat;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload>* all = new std::vector<Workload>{
      {.name = "browse", .fleet = false},
      {.name = "fleet", .fleet = true},
  };
  return *all;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

cbfww::Result<wl::WorkloadSpec> LoadSpec() {
  auto spec = wl::LoadWorkloadSpec(std::string(CBFWW_PERFBENCH_SPEC_DIR) +
                                   "/" + kSpecFile);
  if (!spec.ok()) return spec.status();
  const cbfww::corpus::CorpusOptions corpus = BenchCorpusOptions();
  if (spec->corpus_sites != corpus.num_sites ||
      spec->corpus_pages_per_site != corpus.pages_per_site ||
      spec->corpus_topics != corpus.topic.num_topics) {
    return cbfww::Status::InvalidArgument(
        std::string(kSpecFile) + ": corpus differs from the benchmark's corpus");
  }
  return spec;
}

cbfww::corpus::CorpusOptions BenchCorpusOptions() {
  cbfww::corpus::CorpusOptions copts;
  copts.num_sites = 12;
  copts.pages_per_site = 250;
  copts.topic.num_topics = 10;
  copts.seed = kCorpusSeed;
  return copts;
}

std::vector<std::string> SearchTerms(const cbfww::corpus::WebCorpus& corpus,
                                      uint64_t seed, size_t k) {
  cbfww::Pcg32 rng(seed, /*stream=*/0x3E47);
  std::vector<std::string> terms;
  for (size_t tries = 0; terms.size() < k && tries < 100 * k; ++tries) {
    const auto& page = corpus.page(
        rng.NextBounded(static_cast<uint32_t>(corpus.num_pages())));
    const auto& title = corpus.raw(page.container).title_terms;
    if (title.empty()) continue;
    std::string term(corpus.vocabulary().TermOf(
        title[rng.NextBounded(static_cast<uint32_t>(title.size()))]));
    if (std::find(terms.begin(), terms.end(), term) == terms.end()) {
      terms.push_back(std::move(term));
    }
  }
  return terms;
}

std::vector<wl::Op> GenerateOps(const wl::WorkloadSpec& workload_spec,
                                const cbfww::corpus::WebCorpus& corpus,
                                uint64_t seed, uint64_t n) {
  wl::WorkloadSpec spec = workload_spec;
  spec.seed = seed;
  spec.ops = n;
  wl::OpGenerator gen(&corpus, spec);
  return gen.Generate(n);
}

std::string DescribeOp(const wl::Op& op) {
  return StrFormat("%s t=%lld page=%llu user=%u session=%lld start=%d "
                   "link=%d raw=%llu index=%d q=%s",
                   wl::OpTypeName(op.type), static_cast<long long>(op.time),
                   static_cast<unsigned long long>(op.page), op.user,
                   static_cast<long long>(op.session), op.session_start ? 1 : 0,
                   op.via_link ? 1 : 0, static_cast<unsigned long long>(op.raw),
                   op.use_index ? 1 : 0, op.query_text.c_str());
}

}  // namespace perfbench
