// `perfbench solve`: one `extscc_tool solve` run, timed from opening the
// text edge list to the last label line written. The load (wall up to
// LoadTextEdgeList returning) and the SCC computation (the RunExtScc
// call) are also reported on their own.
//
// Untraced, it makes exactly the tool's calls: LoadTextEdgeList, then
// RunExtScc with ExtSccOptions::Optimized() (Op mode), then the label
// text write, on the tool's IoContext (B = 64 KiB, serial I/O).
//
// With --trace, RunExtScc is replaced by the same sequence of public
// layer calls that its default (no checkpoint) Op path makes — per
// level SortEdgesBothOrders, ComputeVertexCover, ContractEdges and
// NodeFileDifference, then RunSemiScc, then ExpandLevel outermost-last
// — each wrapped in a span. The two paths must make the same block
// I/Os; run.py reports whether they do rather than failing on it.
//
// After the timed interval the labels are fingerprinted (see
// common.h), so run.py can compare them with the oracle's.
//
//   perfbench solve --input=edges.txt --labels=out.txt --memory=BYTES
//                   [--device-model=SPEC] [--trace]
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common.h"
#include "core/contraction.h"
#include "core/expansion.h"
#include "core/ext_scc.h"
#include "core/vertex_cover.h"
#include "graph/edge_file.h"
#include "graph/graph_io.h"
#include "graph/node_file.h"
#include "io/record_stream.h"
#include "scc/br_tree_scc.h"

namespace perfbench {

using namespace extscc;

namespace {

struct LevelFiles {
  std::string ein, eout, cover, removed;
};

// Per-layer counters the traced solve reports beside its spans.
struct TraceCounts {
  std::uint64_t levels = 0;
  std::uint64_t level_nodes = 0;   // sum of |V_i| over levels
  std::uint64_t cover_nodes = 0;   // sum of |V_{i+1}|
  std::uint64_t level_edges = 0;   // sum of |E_i|
  std::uint64_t next_edges = 0;    // sum of |E_{i+1}|
  std::uint64_t added_edges = 0;   // sum of |E_add|
  std::uint64_t type2_skips = 0;
  scc::SemiSccStats semi;
  std::uint64_t semi_nodes = 0;
};

// RunExtScc's default Op path, one public layer call per span. Returns
// false when the context latched an I/O error or the cover failed to
// shrink (the conditions on which RunExtScc returns an error).
bool TracedExtScc(io::IoContext* ctx, const graph::DiskGraph& input,
                  const std::string& scc_output, SpanRecorder* spans,
                  TraceCounts* counts) {
  const core::ExtSccOptions options = core::ExtSccOptions::Optimized();
  core::CoverOptions cover_options;
  cover_options.order = core::OrderVariant::kDegreeFanoutId;
  cover_options.type1_reduction = options.type1_reduction;
  cover_options.type2_reduction = options.type2_reduction;
  const core::ContractionOptions contraction_options;

  std::vector<LevelFiles> levels;
  graph::DiskGraph current = input;
  while (!scc::SemiSccFits(options.semi_backend, current.num_nodes,
                           ctx->memory())) {
    LevelFiles level;
    level.ein = ctx->NewTempPath("ein");
    level.eout = ctx->NewTempPath("eout");
    spans->Run("graph.sort_edges", [&] {
      graph::SortEdgesBothOrders(ctx, current.edge_path, level.ein,
                                 level.eout, options.dedup_parallel_edges,
                                 /*drop_self_loops=*/levels.empty());
    });
    const std::uint64_t level_edges = graph::CountEdges(ctx, level.ein);
    const core::CoverResult cover = spans->Run("core.get_v", [&] {
      return core::ComputeVertexCover(ctx, level.ein, level.eout,
                                      cover_options);
    });
    if (ctx->has_io_error() || cover.cover_count >= current.num_nodes) {
      return false;
    }
    level.cover = cover.cover_path;
    const core::ContractionResult contraction = spans->Run("core.get_e", [&] {
      return core::ContractEdges(ctx, level.ein, level.eout, level.cover,
                                 contraction_options);
    });
    level.removed = ctx->NewTempPath("removed");
    spans->Run("graph.node_diff", [&] {
      graph::NodeFileDifference(ctx, current.node_path, level.cover,
                                level.removed);
    });

    counts->levels += 1;
    counts->level_nodes += current.num_nodes;
    counts->cover_nodes += cover.cover_count;
    counts->level_edges += level_edges;
    counts->next_edges += contraction.num_edges;
    counts->added_edges += contraction.new_edges;
    counts->type2_skips += cover.type2_skips;
    levels.push_back(level);
    current = graph::DiskGraph{level.cover, contraction.edge_path,
                               cover.cover_count, contraction.num_edges};
    if (ctx->has_io_error()) return false;
  }

  graph::SccId next_scc_id = 0;
  std::string scc_path = ctx->NewTempPath("scc_semi");
  counts->semi_nodes = current.num_nodes;
  counts->semi = spans->Run("scc.semi", [&] {
    return scc::RunSemiScc(options.semi_backend, ctx, current, scc_path,
                           &next_scc_id);
  });
  if (ctx->has_io_error()) return false;

  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const bool outermost = std::next(it) == levels.rend();
    const core::ExpansionResult expanded = spans->Run("core.expand", [&] {
      return core::ExpandLevel(ctx, it->ein, it->eout, it->cover, it->removed,
                               scc_path, &next_scc_id,
                               outermost ? scc_output : std::string());
    });
    ctx->temp_files().Remove(scc_path);
    scc_path = expanded.scc_path;
    if (ctx->has_io_error()) return false;
  }
  if (levels.empty()) {
    // No contraction: the base case's labels are the output (the copy
    // RunExtScc makes; it belongs to no layer span).
    io::CopyAllRecords<graph::SccEntry>(ctx, scc_path, scc_output);
    ctx->temp_files().Remove(scc_path);
  }
  return !ctx->has_io_error();
}

// The tool's label output loop. False on a read or write failure.
bool WriteLabels(io::IoContext* ctx, const std::string& scc_path,
                 const std::string& labels_path) {
  std::ofstream out(labels_path);
  if (!out) return false;
  io::RecordReader<graph::SccEntry> reader(ctx, scc_path);
  graph::SccEntry entry;
  while (reader.Next(&entry)) {
    out << entry.node << ' ' << entry.scc << '\n';
  }
  out.flush();
  return reader.status().ok() && static_cast<bool>(out);
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

int CmdSolve(const Flags& flags) {
  const std::string input = flags.Str("input");
  const std::string labels = flags.Str("labels");
  if (input.empty() || labels.empty() || !flags.Has("memory")) {
    std::fprintf(stderr, "solve: --input, --labels and --memory required\n");
    return 2;
  }
  const bool trace = flags.Has("trace");
  auto context = MakeToolContext(flags.U64("memory", 0),
                                 flags.Str("device-model"));
  io::IoContext* ctx = context.get();
  SpanRecorder spans(ctx);
  TraceCounts counts;
  JsonLine json;
  bool ok = true;

  // ---- timed interval: text edge list in, text labels out ------------
  const Clock start = Clock::Now();
  const io::IoStats start_stats = ctx->stats();
  auto loaded = spans.Run("graph.load_text", [&] {
    return graph::LoadTextEdgeList(ctx, input);
  });
  if (!loaded.ok()) {
    std::fprintf(stderr, "solve: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const graph::DiskGraph& g = loaded.value();
  const Clock loaded_at = Clock::Now();
  const std::string scc_path = ctx->NewTempPath("scc");
  const std::uint64_t solve_start_ios = ctx->stats().total_ios();
  std::uint64_t block_ios = 0;
  std::uint64_t levels = 0;
  if (trace) {
    ok = TracedExtScc(ctx, g, scc_path, &spans, &counts);
    block_ios = ctx->stats().total_ios() - solve_start_ios;
    levels = counts.levels;
  } else {
    auto result = core::RunExtScc(ctx, g, scc_path,
                                  core::ExtSccOptions::Optimized());
    ok = result.ok();
    if (ok) {
      block_ios = result.value().total_ios;
      levels = result.value().num_levels();
    } else {
      std::fprintf(stderr, "solve: %s\n", result.status().ToString().c_str());
    }
  }
  const Clock solved_at = Clock::Now();
  if (ok) {
    ok = spans.Run("graph.write_labels",
                   [&] { return WriteLabels(ctx, scc_path, labels); });
  }
  const Clock end = Clock::Now();
  const io::IoStats moved = ctx->stats() - start_stats;
  const double peak_rss_mb = PeakRssMb();
  // ---- end of timed interval -----------------------------------------

  json.Bool("ok", ok);
  json.Num("wall_s", end.wall - start.wall);
  json.Num("cpu_s", end.cpu - start.cpu);
  json.Num("load_s", loaded_at.wall - start.wall);
  json.Num("scc_s", solved_at.wall - loaded_at.wall);
  json.Int("edges", g.num_edges);
  json.Int("block_ios", block_ios);
  json.Int("levels", levels);
  json.Num("peak_rss_mb", peak_rss_mb);
  json.Int("random_ios", moved.random_ios());
  json.Int("bytes_moved", moved.bytes_read + moved.bytes_written);
  if (trace) {
    json.Spans(spans);
    json.Num("cover_ratio", Ratio(counts.cover_nodes, counts.level_nodes));
    json.Int("type2_skips", counts.type2_skips);
    json.Num("edge_ratio", Ratio(counts.next_edges, counts.level_edges));
    json.Int("added_edges", counts.added_edges);
    json.Int("semi_rounds", counts.semi.rounds);
    json.Int("semi_edge_scans", counts.semi.edge_scans);
    json.Int("semi_nodes", counts.semi_nodes);
    json.Num("span_sum_s", spans.span_seconds());
  }
  if (ok) {
    LabelFingerprint fingerprint;
    ok = FingerprintLabelFile(labels, &fingerprint);
    json.Str("fingerprint", fingerprint.Hex());
    json.Int("label_nodes", fingerprint.nodes());
  }
  json.Bool("labels_ok", ok);
  json.Print();
  return 0;
}

}  // namespace perfbench
