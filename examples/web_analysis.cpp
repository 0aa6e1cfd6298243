// Full web-graph analysis pipeline — everything the paper's introduction
// says SCC computation enables, end to end on one graph:
//
//   1. Ext-SCC-Op under contraction pressure        (the contribution)
//   2. bow-tie decomposition around the giant SCC   (Broder et al.)
//   3. condensation + external topological sort     (motivation 1)
//   4. external bisimulation on the condensation    (motivation 1, [16])
//   5. GRAIL-style reachability index (the serve artifact) + sample
//      queries                                      (motivation 2, [25])
//
//   $ ./web_analysis [num_nodes] [seed]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "app/bisimulation.h"
#include "app/bowtie.h"
#include "core/ext_scc.h"
#include "gen/webgraph_generator.h"
#include "io/record_stream.h"
#include "scc/condensation.h"
#include "scc/semi_external_scc.h"
#include "serve/artifact.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "serve/service.h"
#include "util/parse.h"
#include "util/random.h"

namespace {
using namespace extscc;

// Reports a failed pipeline step; main returns its result.
int Fail(const char* step, const util::Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", step, status.ToString().c_str());
  return 1;
}
}  // namespace

int main(int argc, char** argv) {
  std::uint64_t num_nodes = 20'000;
  std::uint64_t seed = 2007;
  if ((argc > 1 &&
       !util::ParseUnsignedArg("num_nodes", argv[1], &num_nodes)) ||
      (argc > 2 && !util::ParseUnsignedArg("seed", argv[2], &seed))) {
    return 2;
  }

  io::IoContextOptions machine;
  machine.block_size = 16 * 1024;
  machine.memory_bytes = std::max<std::uint64_t>(
      2 * machine.block_size,
      scc::SemiExternalScc::kBytesPerNode * (num_nodes / 4));
  io::IoContext context(machine);

  gen::WebGraphParams params;
  params.num_nodes = num_nodes;
  params.seed = seed;
  const auto g = gen::GenerateWebGraph(&context, params);
  std::printf("web graph: %s (M=%llu KB)\n\n", g.Describe().c_str(),
              static_cast<unsigned long long>(machine.memory_bytes / 1024));

  // ---- 1. SCCs ----------------------------------------------------------
  const std::string scc_path = context.NewTempPath("scc");
  auto scc_result = core::RunExtScc(&context, g, scc_path,
                                    core::ExtSccOptions::Optimized());
  if (!scc_result.ok()) return Fail("Ext-SCC", scc_result.status());
  std::printf("[1] Ext-SCC-Op: %llu SCCs in %u contraction levels "
              "(%llu I/Os)\n",
              static_cast<unsigned long long>(scc_result.value().num_sccs),
              scc_result.value().num_levels(),
              static_cast<unsigned long long>(
                  scc_result.value().total_ios));

  // ---- 2. bow-tie --------------------------------------------------------
  auto bowtie = app::BowtieDecompose(&context, g, scc_path);
  if (!bowtie.ok()) return Fail("bow-tie", bowtie.status());
  const auto& bt = bowtie.value();
  std::printf("[2] bow-tie: CORE %llu (SCC #%u), IN %llu, OUT %llu, "
              "OTHER %llu\n",
              static_cast<unsigned long long>(bt.core_size), bt.core_scc,
              static_cast<unsigned long long>(bt.in_size),
              static_cast<unsigned long long>(bt.out_size),
              static_cast<unsigned long long>(bt.other_size));

  // ---- 3. condensation + topological sort --------------------------------
  const auto condensation = scc::BuildCondensation(&context, g, scc_path);
  auto topo = scc::ExternalTopoSort(&context, condensation.dag);
  if (!topo.ok()) return Fail("topo sort", topo.status());
  std::printf("[3] condensation: %s; topological levels: %llu\n",
              condensation.dag.Describe().c_str(),
              static_cast<unsigned long long>(topo.value().num_levels));

  // ---- 4. bisimulation on the DAG ----------------------------------------
  auto bisim = app::ExternalBisimulation(&context, condensation.dag);
  if (!bisim.ok()) return Fail("bisimulation", bisim.status());
  std::printf("[4] bisimulation: %llu blocks over %llu DAG nodes "
              "(%.1f%% compression, %llu height levels)\n",
              static_cast<unsigned long long>(bisim.value().num_blocks),
              static_cast<unsigned long long>(condensation.dag.num_nodes),
              100.0 * (1.0 - static_cast<double>(bisim.value().num_blocks) /
                                 static_cast<double>(
                                     condensation.dag.num_nodes)),
              static_cast<unsigned long long>(bisim.value().num_heights));

  // ---- 5. reachability index + sample queries ----------------------------
  // The serve artifact over the labels from step 1: condensation plus
  // GRAIL-style interval labels, answering one batch of random pairs.
  const std::string artifact_path = context.NewTempPath("reach_index");
  auto built = serve::BuildArtifactFromLabels(
      &context, g, scc_path, scc_result.value().num_sccs, artifact_path, {});
  if (!built.ok()) return Fail("reachability index", built.status());
  auto index = serve::ArtifactReader::Open(&context, artifact_path);
  if (!index.ok()) return Fail("reachability index open", index.status());
  const auto nodes = io::ReadAllRecords<graph::NodeId>(&context, g.node_path);
  util::Rng rng(seed + 1);
  std::vector<serve::Query> queries(2000);
  for (serve::Query& q : queries) {
    q = {serve::QueryType::kReachable, nodes[rng.Uniform(nodes.size())],
         nodes[rng.Uniform(nodes.size())]};
  }
  std::vector<serve::QueryAnswer> answers;
  serve::QueryBatchStats qs;
  const util::Status ran =
      serve::RunQueries(&context, serve::QueryEngine(&index.value()), queries,
                        1, &answers, &qs);
  if (!ran.ok()) return Fail("reachability queries", ran);
  std::uint64_t reachable = 0;
  for (const serve::QueryAnswer& a : answers) reachable += a.result;
  std::printf("[5] reachability: %llu/%llu random pairs reachable "
              "(same-SCC %llu, interval-refuted %llu, DFS fallback %llu)\n",
              static_cast<unsigned long long>(reachable),
              static_cast<unsigned long long>(queries.size()),
              static_cast<unsigned long long>(qs.labels.same_scc_hits),
              static_cast<unsigned long long>(qs.labels.interval_refutations),
              static_cast<unsigned long long>(qs.labels.dfs_fallbacks));

  std::puts("\npipeline complete — one external SCC computation fed four "
            "downstream analyses");
  return 0;
}
