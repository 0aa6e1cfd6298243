// Reachability through the serve artifact, the repo's one reachability
// index: every ordered pair of small graphs against BFS, sampled pairs
// of random graphs, the interval labels' refutations and per-batch
// counters, the artifact's DAG sizes against BuildCondensation, and the
// build's argument checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <tuple>
#include <vector>

#include "core/ext_scc.h"
#include "gen/classic_graphs.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "io/record_stream.h"
#include "scc/condensation.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "test_util.h"
#include "util/random.h"
#include "util/status.h"

namespace extscc {
namespace {

namespace fs = std::filesystem;
using graph::Edge;
using graph::NodeId;
using serve::ArtifactReader;
using serve::Query;
using serve::QueryAnswer;
using serve::QueryBatchStats;
using serve::QueryType;
using testing::MakeTestContext;

// A built and opened artifact; removes the artifact file on destruction.
struct BuiltIndex {
  std::string path;
  serve::ArtifactSummary summary;
  std::optional<ArtifactReader> reader;

  ~BuiltIndex() {
    std::error_code ignored;
    if (!path.empty()) fs::remove(path, ignored);
  }
};

// Builds the artifact over `g`; stops the test on a failed build or open.
void BuildIndex(io::IoContext* context, const graph::DiskGraph& g,
                const std::string& tag, std::uint32_t num_labels,
                BuiltIndex* index) {
  serve::BuildArtifactOptions options;
  options.num_labels = num_labels;
  index->path = testing::ArtifactTestPath(context, "reach_" + tag);
  auto built = serve::BuildArtifact(context, g, index->path, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  index->summary = built.value().summary;
  auto opened = ArtifactReader::Open(context, index->path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  index->reader.emplace(std::move(opened).value());
}

// Runs `queries` as one batch; stops the test on a failed batch.
void RunReachBatch(io::IoContext* context, const BuiltIndex& index,
                   const std::vector<Query>& queries,
                   std::vector<QueryAnswer>* answers,
                   QueryBatchStats* stats) {
  answers->assign(queries.size(), QueryAnswer{});
  ASSERT_TRUE(serve::QueryEngine(&*index.reader)
                  .RunBatch(context, queries.data(), queries.size(),
                            answers->data(), stats)
                  .ok());
}

// ---- Small graphs, every pair ----------------------------------------

struct ReachCase {
  std::string name;
  std::vector<Edge> edges;
  std::vector<NodeId> extra_nodes;
  std::uint32_t num_labels = 3;
  // A path condenses to a chain, where interval containment is exact:
  // the labels refute every negative query without the DFS fallback.
  bool chain = false;
};

class ReachabilityIndexTest : public ::testing::TestWithParam<ReachCase> {};

// Every ordered node pair in one batch against BFS on the input graph;
// the artifact's DAG sizes against BuildCondensation's.
TEST_P(ReachabilityIndexTest, AllPairsMatchBfs) {
  const ReachCase& c = GetParam();
  auto context = MakeTestContext();
  const auto g = graph::MakeDiskGraph(context.get(), c.edges, c.extra_nodes);
  BuiltIndex index;
  ASSERT_NO_FATAL_FAILURE(
      BuildIndex(context.get(), g, c.name, c.num_labels, &index));

  const std::string scc_path = context->NewTempPath("scc");
  ASSERT_TRUE(core::RunExtScc(context.get(), g, scc_path,
                              core::ExtSccOptions::Basic())
                  .ok());
  const auto condensation = scc::BuildCondensation(context.get(), g, scc_path);
  EXPECT_EQ(index.summary.dag_nodes, condensation.dag.num_nodes);
  EXPECT_EQ(index.summary.dag_edges, condensation.dag.num_edges);

  const auto nodes = io::ReadAllRecords<NodeId>(context.get(), g.node_path);
  const graph::Digraph oracle_graph(nodes, c.edges);
  std::vector<Query> queries;
  for (const NodeId u : nodes) {
    for (const NodeId v : nodes) {
      queries.push_back({QueryType::kReachable, u, v});
    }
  }
  std::vector<QueryAnswer> answers;
  QueryBatchStats stats;
  ASSERT_NO_FATAL_FAILURE(
      RunReachBatch(context.get(), index, queries, &answers, &stats));
  std::uint64_t negatives = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const bool want =
        testing::OracleReach(oracle_graph, queries[i].u, queries[i].v);
    ASSERT_TRUE(answers[i].known);
    EXPECT_EQ(answers[i].result, want)
        << queries[i].u << " -> " << queries[i].v;
    negatives += want ? 0 : 1;
  }
  EXPECT_EQ(stats.queries, queries.size());
  if (c.chain) EXPECT_EQ(stats.labels.interval_refutations, negatives);
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, ReachabilityIndexTest,
    ::testing::Values(
        ReachCase{"Fig1", gen::Fig1Edges()},
        ReachCase{"Chain", gen::PathEdges(64), {}, 3, /*chain=*/true},
        ReachCase{"CycleReachesEverything", gen::CycleEdges(16)},
        ReachCase{"IsolatedNodesReachOnlyThemselves", gen::PathEdges(4),
                  {90, 91}},
        ReachCase{"CycleChains", gen::CycleChainEdges(4, 4)},
        ReachCase{"OneLabelRound", gen::RandomDigraphEdges(40, 100, 5), {},
                  1}),
    [](const ::testing::TestParamInfo<ReachCase>& info) {
      return info.param.name;
    });

// ---- Per-batch counters ----------------------------------------------

TEST(ReachabilityIndexBuildTest, SameSccQueryIsALabelHit) {
  auto context = MakeTestContext();
  const auto g = graph::MakeDiskGraph(context.get(), gen::CycleEdges(8));
  BuiltIndex index;
  ASSERT_NO_FATAL_FAILURE(BuildIndex(context.get(), g, "cycle", 3, &index));
  std::vector<QueryAnswer> answers;
  QueryBatchStats stats;
  ASSERT_NO_FATAL_FAILURE(RunReachBatch(
      context.get(), index, {{QueryType::kReachable, 0, 5}}, &answers,
      &stats));
  EXPECT_TRUE(answers[0].known);
  EXPECT_TRUE(answers[0].result);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.labels.same_scc_hits, 1u);
  EXPECT_EQ(stats.labels.dfs_fallbacks, 0u);
}

// ---- Argument checks -------------------------------------------------

TEST(ReachabilityIndexBuildTest, RejectsZeroLabelRoundsAndUncoveringLabels) {
  auto context = MakeTestContext();
  const auto g = graph::MakeDiskGraph(context.get(), gen::PathEdges(8));
  const std::string path =
      testing::ArtifactTestPath(context.get(), "reach_rejected");
  serve::BuildArtifactOptions zero_rounds;
  zero_rounds.num_labels = 0;
  auto built = serve::BuildArtifact(context.get(), g, path, zero_rounds);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), util::StatusCode::kInvalidArgument);

  // Labels solved for a smaller graph do not cover `g`.
  const auto g_small = graph::MakeDiskGraph(context.get(), gen::PathEdges(3));
  const std::string scc_path = context->NewTempPath("scc");
  auto solved = core::RunExtScc(context.get(), g_small, scc_path,
                                core::ExtSccOptions::Basic());
  ASSERT_TRUE(solved.ok());
  auto from_labels = serve::BuildArtifactFromLabels(
      context.get(), g, scc_path, solved.value().num_sccs, path, {});
  ASSERT_FALSE(from_labels.ok());
  EXPECT_EQ(from_labels.status().code(), util::StatusCode::kInvalidArgument);
}

// ---- Property sweep: random graphs, sampled pairs vs BFS -------------

class ReachabilitySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ReachabilitySweep, MatchesOracleOnSampledPairs) {
  const auto [nodes, edges, seed] = GetParam();
  const auto edge_list = gen::RandomDigraphEdges(nodes, edges, seed);
  auto context = MakeTestContext();
  const auto g = graph::MakeDiskGraph(context.get(), edge_list);
  BuiltIndex index;
  ASSERT_NO_FATAL_FAILURE(BuildIndex(
      context.get(), g,
      "sweep_" + std::to_string(nodes) + "_" + std::to_string(edges) + "_" +
          std::to_string(seed),
      3, &index));

  const auto node_ids =
      io::ReadAllRecords<NodeId>(context.get(), g.node_path);
  const graph::Digraph oracle_graph(node_ids, edge_list);
  util::Rng rng(seed * 1000 + 7);
  std::vector<Query> queries;
  for (int q = 0; q < 300; ++q) {
    const NodeId u = node_ids[rng.Uniform(node_ids.size())];
    const NodeId v = node_ids[rng.Uniform(node_ids.size())];
    queries.push_back({QueryType::kReachable, u, v});
  }
  std::vector<QueryAnswer> answers;
  QueryBatchStats stats;
  ASSERT_NO_FATAL_FAILURE(
      RunReachBatch(context.get(), index, queries, &answers, &stats));
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(answers[i].known);
    ASSERT_EQ(answers[i].result,
              testing::OracleReach(oracle_graph, queries[i].u, queries[i].v))
        << queries[i].u << " -> " << queries[i].v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ReachabilitySweep,
    ::testing::Combine(::testing::Values(30, 120),
                       ::testing::Values(60, 360),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace extscc
