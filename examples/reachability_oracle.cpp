// Reachability queries via SCC condensation — the paper's motivating
// application (2): almost every reachability index first contracts the
// input to a DAG by computing SCCs (the paper cites GRAIL [25]).
//
//   $ ./reachability_oracle [num_nodes] [num_queries]
//
// Builds a synthetic graph with planted SCCs, computes SCCs with Ext-SCC
// under contraction pressure, then persists the serve artifact — the
// GRAIL-style interval-labelled index over the condensation DAG — and
// answers one batch of random reachability queries from it,
// cross-checking every answer against a direct BFS on the original
// graph. Exits 1 on any disagreement.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/ext_scc.h"
#include "gen/synthetic_generator.h"
#include "graph/digraph.h"
#include "io/record_stream.h"
#include "scc/semi_external_scc.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "serve/service.h"
#include "util/parse.h"
#include "util/random.h"

using namespace extscc;

namespace {

// Reports a failed pipeline step; main returns its result.
int Fail(const char* step, const util::Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", step, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t num_nodes = 5'000;
  std::uint64_t num_queries = 500;
  if ((argc > 1 &&
       !util::ParseUnsignedArg("num_nodes", argv[1], &num_nodes)) ||
      (argc > 2 &&
       !util::ParseUnsignedArg("num_queries", argv[2], &num_queries))) {
    return 2;
  }

  io::IoContextOptions machine;
  machine.block_size = 4096;
  // An eighth of the node set fits in memory — forces real contraction
  // levels — but never below the model's M >= 2B floor.
  machine.memory_bytes =
      std::max<std::uint64_t>(2 * machine.block_size,
                              scc::SemiExternalScc::kBytesPerNode *
                                  (num_nodes / 8));
  io::IoContext context(machine);

  gen::SyntheticParams params;
  params.num_nodes = num_nodes;
  params.avg_degree = 2.5;
  params.sccs = {{3, static_cast<std::uint32_t>(num_nodes / 50)},
                 {10, 10}};
  params.seed = 17;
  const auto g = gen::GenerateSynthetic(&context, params);
  std::printf("graph: %s\n", g.Describe().c_str());

  // Step 1: external SCC computation (the expensive, out-of-core step).
  const std::string scc_path = context.NewTempPath("scc");
  auto result = core::RunExtScc(&context, g, scc_path,
                                core::ExtSccOptions::Optimized());
  if (!result.ok()) return Fail("Ext-SCC", result.status());
  std::printf("Ext-SCC: %llu SCCs, %u levels, %llu I/Os\n",
              static_cast<unsigned long long>(result.value().num_sccs),
              result.value().num_levels(),
              static_cast<unsigned long long>(result.value().total_ios));

  // Step 2: GRAIL-style index over the condensation DAG, persisted as a
  // serve artifact in the context's scratch space.
  serve::BuildArtifactOptions index_options;
  index_options.num_labels = 3;
  index_options.label_seed = 7;
  const std::string artifact_path = context.NewTempPath("reach_index");
  auto built = serve::BuildArtifactFromLabels(
      &context, g, scc_path, result.value().num_sccs, artifact_path,
      index_options);
  if (!built.ok()) return Fail("index build", built.status());
  auto opened = serve::ArtifactReader::Open(&context, artifact_path);
  if (!opened.ok()) return Fail("index open", opened.status());
  const serve::ArtifactReader& index = opened.value();
  std::printf("condensation DAG: %llu nodes, %llu edges; %u interval "
              "labelings\n",
              static_cast<unsigned long long>(index.summary().dag_nodes),
              static_cast<unsigned long long>(index.summary().dag_edges),
              index.summary().num_label_rounds);

  // Step 3: random queries in one batch, cross-checked against BFS on
  // the original graph.
  const auto edges = io::ReadAllRecords<graph::Edge>(&context, g.edge_path);
  const auto nodes =
      io::ReadAllRecords<graph::NodeId>(&context, g.node_path);
  graph::Digraph original(nodes, edges);

  util::Rng rng(99);
  std::vector<serve::Query> queries(num_queries);
  for (serve::Query& q : queries) {
    q = {serve::QueryType::kReachable, nodes[rng.Uniform(nodes.size())],
         nodes[rng.Uniform(nodes.size())]};
  }
  std::vector<serve::QueryAnswer> answers;
  serve::QueryBatchStats stats;
  const util::Status ran = serve::RunQueries(
      &context, serve::QueryEngine(&index), queries, 1, &answers, &stats);
  if (!ran.ok()) return Fail("queries", ran);
  std::uint64_t agree = 0, reachable = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const bool direct =
        graph::BfsReachable(original, original.index_of(queries[i].u),
                            original.index_of(queries[i].v));
    if (answers[i].known && direct == answers[i].result) ++agree;
    if (answers[i].result) ++reachable;
  }
  std::printf("queries: %llu, reachable: %llu, agreement: %llu/%llu\n",
              static_cast<unsigned long long>(num_queries),
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(agree),
              static_cast<unsigned long long>(num_queries));
  std::printf("index breakdown: same-SCC %llu, interval refutations %llu, "
              "DFS fallbacks %llu\n",
              static_cast<unsigned long long>(stats.labels.same_scc_hits),
              static_cast<unsigned long long>(
                  stats.labels.interval_refutations),
              static_cast<unsigned long long>(stats.labels.dfs_fallbacks));
  if (agree != num_queries) {
    std::puts("MISMATCH between direct BFS and the reachability index!");
    return 1;
  }
  std::puts("all queries agree — SCC condensation + interval labels are "
            "reachability-preserving");
  return 0;
}
