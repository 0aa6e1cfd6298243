// `perfbench serve`: the serve-mixed workload, one closed-loop client.
//
// Setup (timed as setup_s): what `extscc_tool build-index` does
// (LoadTextEdgeList + BuildArtifact at its default M = 64 MiB), then
// DynamicSccIndex::Open as `update` does.
//
// Session: --batches query batches of --batch-size queries each (same /
// reach / stat, uniform over types and over node ids) through
// serve::RunQueries on the live index's reader — the call `extscc_tool
// query` makes — and after every --update-every batches one
// --update-edges uniform insert batch through ApplyBatch, as `update`
// does. Every batch is timed on its own.
//
// Checks after the session: the last query batch is replayed against
// an in-memory oracle of the final graph (Tarjan labels renumbered by
// first occurrence, as the artifact stores them, and BFS for reach),
// and the final artifact must equal, byte for byte outside the data
// version, a fresh BuildArtifact over the graph it was built from.
//
//   perfbench serve --input=edges.txt --work=DIR --seed=S [--trace]
//       [--batches=1000] [--batch-size=512] [--update-every=10]
//       [--update-edges=200]
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "dyn/dynamic_index.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/graph_io.h"
#include "io/record_stream.h"
#include "scc/tarjan.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "serve/service.h"
#include "util/random.h"

namespace perfbench {

using namespace extscc;

namespace {

// In-memory reference answers over one edge list.
class Oracle {
 public:
  explicit Oracle(const std::vector<graph::Edge>& edges) : g_(edges) {
    graph::SccId next = 0;
    const std::vector<graph::SccId> raw = scc::TarjanSccDense(g_, &next);
    // Renumber by first occurrence in node order: the artifact's labels.
    std::vector<graph::SccId> canonical(next, graph::kInvalidScc);
    graph::SccId assigned = 0;
    label_.resize(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (canonical[raw[i]] == graph::kInvalidScc) {
        canonical[raw[i]] = assigned++;
      }
      label_[i] = canonical[raw[i]];
    }
    size_.assign(assigned, 0);
    for (const graph::SccId l : label_) ++size_[l];
  }

  bool Agrees(const serve::Query& q, const serve::QueryAnswer& a) const {
    const std::size_t u = g_.index_of(q.u);
    const std::size_t v =
        q.type == serve::QueryType::kSccStat ? u : g_.index_of(q.v);
    const bool known = u < g_.num_nodes() && v < g_.num_nodes();
    if (a.known != known) return false;
    if (!known) return true;
    switch (q.type) {
      case serve::QueryType::kSameScc:
        return a.result == (label_[u] == label_[v]) &&
               a.scc_u == label_[u] && a.scc_v == label_[v];
      case serve::QueryType::kReachable:
        return a.result == (label_[u] == label_[v] ||
                            graph::BfsReachable(g_, u, v));
      case serve::QueryType::kSccStat:
        return a.scc_u == label_[u] && a.scc_size == size_[label_[u]];
    }
    return false;
  }

 private:
  graph::Digraph g_;
  std::vector<graph::SccId> label_;
  std::vector<std::uint64_t> size_;
};

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

// Byte equality outside the preamble's data-version field (bytes
// 16..24) and the preamble CRC that covers it (28..32): an updated
// artifact carries a bumped version, a fresh build carries 0.
bool SameArtifactBytes(const std::string& a_path, const std::string& b_path) {
  const std::vector<char> a = ReadBytes(a_path);
  const std::vector<char> b = ReadBytes(b_path);
  if (a.empty() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((i >= 16 && i < 24) || (i >= 28 && i < 32)) continue;
    if (a[i] != b[i]) return false;
  }
  return true;
}

void RemoveArtifact(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".dlog", ec);
}

}  // namespace

int CmdServe(const Flags& flags) {
  const std::string input = flags.Str("input");
  const std::string work = flags.Str("work");
  if (input.empty() || work.empty()) {
    std::fprintf(stderr, "serve: --input and --work are required\n");
    return 2;
  }
  const std::uint64_t num_batches = flags.U64("batches", 1000);
  const std::uint64_t batch_size = flags.U64("batch-size", 512);
  const std::uint64_t update_every =
      std::max<std::uint64_t>(1, flags.U64("update-every", 10));
  const std::uint64_t update_edges = flags.U64("update-edges", 200);
  const bool trace = flags.Has("trace");
  const std::string artifact = work + "/serve.art";

  // build-index and query/update all run at the tool's default 64 MiB.
  auto context = MakeToolContext(64ull << 20);
  io::IoContext* ctx = context.get();
  SpanRecorder spans(ctx);
  JsonLine json;

  // ---- setup ----------------------------------------------------------
  const Clock setup_start = Clock::Now();
  auto loaded = spans.Run("graph.load_text", [&] {
    return graph::LoadTextEdgeList(ctx, input);
  });
  if (!loaded.ok()) {
    std::fprintf(stderr, "serve: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto built = serve::BuildArtifact(ctx, loaded.value(), artifact, {});
  if (!built.ok()) {
    std::fprintf(stderr, "serve: %s\n", built.status().ToString().c_str());
    return 1;
  }
  auto opened = dyn::DynamicSccIndex::Open(ctx, artifact);
  if (!opened.ok()) {
    std::fprintf(stderr, "serve: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  std::optional<dyn::DynamicSccIndex> index(std::move(opened).value());
  const double setup_s = Clock::Now().wall - setup_start.wall;
  const std::vector<graph::Edge> base_edges =
      io::ReadAllRecords<graph::Edge>(ctx, loaded.value().edge_path);
  ctx->temp_files().Remove(loaded.value().edge_path);
  ctx->temp_files().Remove(loaded.value().node_path);
  const std::uint64_t num_nodes = index->reader().summary().graph_nodes;

  // The request streams, drawn from the seed before the session starts.
  util::Rng rng(flags.U64("seed", 1) * 0x9E3779B97F4A7C15ull + 11);
  std::vector<std::vector<serve::Query>> batches(num_batches);
  std::uint64_t reach_queries = 0;
  for (auto& batch : batches) {
    batch.resize(batch_size);
    for (serve::Query& q : batch) {
      q.type = static_cast<serve::QueryType>(rng.Uniform(3));
      q.u = static_cast<graph::NodeId>(rng.Uniform(num_nodes));
      q.v = q.type == serve::QueryType::kSccStat
                ? 0
                : static_cast<graph::NodeId>(rng.Uniform(num_nodes));
      if (q.type == serve::QueryType::kReachable) ++reach_queries;
    }
  }
  std::vector<std::vector<graph::Edge>> updates(num_batches / update_every);
  for (auto& batch : updates) {
    batch.resize(update_edges);
    for (graph::Edge& e : batch) {
      e.src = static_cast<graph::NodeId>(rng.Uniform(num_nodes));
      e.dst = static_cast<graph::NodeId>(rng.Uniform(num_nodes));
    }
  }
  const bool rss_reset = ResetPeakRss();

  // ---- session --------------------------------------------------------
  std::vector<double> query_ms, update_ms;
  std::uint64_t attempted = 0, failed = 0, rewrites = 0;
  std::uint64_t dyn_batch_ios = 0, dyn_swept_blocks = 0;
  std::size_t last_rewrite = 0;  // updates folded into the artifact
  serve::QueryBatchStats query_stats;
  std::vector<serve::QueryAnswer> answers;
  const Clock start = Clock::Now();
  const io::IoStats start_stats = ctx->stats();
  std::size_t next_update = 0;
  for (std::uint64_t b = 0; b < num_batches; ++b) {
    const Clock t0 = Clock::Now();
    const util::Status status = spans.Run("serve.run_batch", [&] {
      const serve::QueryEngine engine(&index->reader());
      return serve::RunQueries(ctx, engine, batches[b], 1, &answers,
                               &query_stats);
    });
    query_ms.push_back(1e3 * (Clock::Now().wall - t0.wall));
    ++attempted;
    if (!status.ok()) ++failed;

    if ((b + 1) % update_every == 0 && next_update < updates.size()) {
      const Clock u0 = Clock::Now();
      auto applied = spans.Run("dyn.apply_batch", [&] {
        return index->ApplyBatch(updates[next_update]);
      });
      update_ms.push_back(1e3 * (Clock::Now().wall - u0.wall));
      ++attempted;
      ++next_update;
      if (!applied.ok()) {
        ++failed;
        continue;
      }
      dyn_batch_ios += applied.value().batch_ios;
      dyn_swept_blocks += applied.value().swept_blocks;
      if (applied.value().rewrote_artifact) {
        ++rewrites;
        last_rewrite = next_update;
      }
    }
  }
  const Clock end = Clock::Now();
  const io::IoStats moved = ctx->stats() - start_stats;
  const double peak_rss_mb = PeakRssMb();
  // ---- end of session -------------------------------------------------

  // Replay the last query batch on the final state against the oracle.
  std::vector<graph::Edge> union_edges = base_edges;
  std::vector<graph::Edge> folded_edges = base_edges;
  std::uint64_t pending = 0;
  for (std::size_t i = 0; i < next_update; ++i) {
    union_edges.insert(union_edges.end(), updates[i].begin(),
                       updates[i].end());
    if (i < last_rewrite) {
      folded_edges.insert(folded_edges.end(), updates[i].begin(),
                          updates[i].end());
    } else {
      pending += updates[i].size();
    }
  }
  bool replay_ok = false;
  if (num_batches > 0) {
    const Oracle oracle(union_edges);
    const serve::QueryEngine engine(&index->reader());
    std::vector<serve::QueryAnswer> replayed;
    const std::vector<serve::Query>& last = batches[num_batches - 1];
    replay_ok = serve::RunQueries(ctx, engine, last, 1, &replayed).ok();
    for (std::size_t i = 0; replay_ok && i < last.size(); ++i) {
      replay_ok = oracle.Agrees(last[i], replayed[i]);
    }
  }
  ++attempted;
  if (!replay_ok) ++failed;

  // The maintained artifact against a fresh build of the graph it holds
  // (edges of later non-structural batches wait in the delta log).
  bool artifact_ok = index->pending_delta_edges() == pending;
  if (artifact_ok) {
    const std::string rebuilt = work + "/rebuild.art";
    RemoveArtifact(rebuilt);
    const graph::DiskGraph g = graph::MakeDiskGraph(ctx, folded_edges);
    artifact_ok = serve::BuildArtifact(ctx, g, rebuilt, {}).ok() &&
                  SameArtifactBytes(artifact, rebuilt);
    RemoveArtifact(rebuilt);
  }
  ++attempted;
  if (!artifact_ok) ++failed;
  index.reset();
  RemoveArtifact(artifact);

  const double session_s = end.wall - start.wall;
  double update_s = 0;
  for (const double ms : update_ms) update_s += ms / 1e3;
  const std::uint64_t queries = num_batches * batch_size;
  json.Int("attempted", attempted);
  json.Int("failed", failed);
  json.Bool("replay_ok", replay_ok);
  json.Bool("artifact_ok", artifact_ok);
  json.Num("setup_s", setup_s);
  json.Num("session_s", session_s);
  json.Num("cpu_s", end.cpu - start.cpu);
  json.Int("block_ios", moved.total_ios());
  json.Int("random_ios", moved.random_ios());
  json.Int("bytes_moved", moved.bytes_read + moved.bytes_written);
  json.Num("peak_rss_mb", peak_rss_mb);
  json.Bool("rss_reset", rss_reset);
  json.Num("queries_per_s", session_s > 0 ? queries / session_s : 0);
  json.Num("query_p50_ms", Median(query_ms));
  json.Num("query_p95_ms", Percentile(query_ms, 0.95));
  json.Num("query_p99_ms", Percentile(query_ms, 0.99));
  json.Num("update_p50_ms", Median(update_ms));
  json.Num("update_p90_ms", Percentile(update_ms, 0.90));
  json.Int("update_samples", update_ms.size());
  json.Int("inserted_edges", next_update * update_edges);
  json.Num("update_s", update_s);
  json.Int("swept_blocks", query_stats.swept_blocks);
  json.Int("probe_spill_runs", query_stats.probe_spill_runs);
  json.Int("dfs_fallbacks", query_stats.labels.dfs_fallbacks);
  json.Int("reach_queries", reach_queries);
  json.Int("rewrites", rewrites);
  json.Int("dyn_batch_ios", dyn_batch_ios);
  json.Int("dyn_swept_blocks", dyn_swept_blocks);
  if (trace) json.Spans(spans);
  json.Print();
  return 0;
}

}  // namespace perfbench
