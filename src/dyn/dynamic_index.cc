#include "dyn/dynamic_index.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dyn/delta_log.h"
#include "extsort/external_sorter.h"
#include "extsort/record_sink.h"
#include "extsort/record_traits.h"
#include "graph/digraph.h"
#include "scc/tarjan.h"
#include "serve/artifact_format.h"
#include "serve/index_builder.h"
#include "serve/query_engine.h"
#include "util/logging.h"

namespace extscc::dyn {

namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccEntry;
using graph::SccId;
using serve::ArtifactSummary;

}  // namespace

util::Result<DynamicSccIndex> DynamicSccIndex::Open(
    io::IoContext* context, const std::string& artifact_path) {
  // GC a "<path>.tmp" orphaned by an updater that died between writing
  // the candidate and renaming it: it was never published, so removing
  // it is always safe — and only the updater may do this (a serving
  // process must not, or it would race a LIVE updater's publish).
  // Delete ignores missing files on every device.
  (void)context->ResolveDevice(artifact_path)->Delete(artifact_path + ".tmp");
  (void)context->ResolveDevice(artifact_path)
      ->Delete(DeltaLogPathFor(artifact_path) + ".tmp");
  auto reader = serve::ArtifactReader::Open(context, artifact_path);
  RETURN_IF_ERROR(reader.status());
  DynamicSccIndex index;
  index.context_ = context;
  index.path_ = artifact_path;
  index.reader_.emplace(std::move(reader).value());
  // Dense-label invariant the whole updater leans on: condensation node
  // ids are exactly 0..S-1 in order, so a DAG node's dense index IS its
  // SCC id (RunExtScc labels densely; canonicalization keeps density).
  const graph::Digraph& dag = index.reader_->labels().dag();
  for (std::size_t s = 0; s < dag.num_nodes(); ++s) {
    if (dag.id_of(s) != s) {
      return util::Status::Corruption(
          "artifact condensation labels are not dense");
    }
  }
  // Self-healing read: a log tail torn by a killed appender is
  // truncated to the last CRC-valid record here, not failed on.
  auto pending = RecoverDeltaLog(context, DeltaLogPathFor(artifact_path),
                                 index.reader_->data_version());
  RETURN_IF_ERROR(pending.status());
  index.delta_edges_ = std::move(pending).value();
  return index;
}

util::Result<UpdateBatchStats> DynamicSccIndex::ApplyBatch(
    const std::vector<Edge>& batch) {
  UpdateBatchStats stats;
  stats.edges_in = batch.size();
  stats.published_version = reader_->data_version();
  if (batch.empty()) return stats;
  const io::IoStats before = context_->stats();

  // 1. Translate endpoints to SCC ids — the query engine's sort-sweep:
  // probes sorted by node, resolved against ONE sequential sweep of the
  // node-sorted map section.
  std::vector<SccId> resolved(2 * batch.size(), graph::kInvalidScc);
  {
    extsort::SortingWriter<serve::NodeProbe, serve::NodeProbeByNode> sorter(
        context_, serve::NodeProbeByNode{});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      sorter.Add({batch[i].src, static_cast<std::uint32_t>(2 * i)});
      sorter.Add({batch[i].dst, static_cast<std::uint32_t>(2 * i + 1)});
    }
    serve::SccMapScanner scanner = reader_->OpenNodeSccScan();
    SccEntry cur{};
    bool have = scanner.Next(&cur);
    auto sink = extsort::MakeCallbackSink<serve::NodeProbe>(
        [&](const serve::NodeProbe& probe) {
          while (have && cur.node < probe.node) have = scanner.Next(&cur);
          if (have && cur.node == probe.node) resolved[probe.slot] = cur.scc;
        });
    const auto sort_info = sorter.FinishInto(sink);
    RETURN_IF_ERROR(sort_info.status);
    RETURN_IF_ERROR(scanner.status());
    stats.swept_blocks = scanner.blocks_read();
  }

  // 2. Unseen endpoints become provisional singleton SCCs, ids
  // S_old + rank in sorted node order.
  const SccId old_sccs = static_cast<SccId>(reader_->num_sccs());
  std::vector<NodeId> new_nodes;
  for (std::size_t slot = 0; slot < resolved.size(); ++slot) {
    if (resolved[slot] != graph::kInvalidScc) continue;
    const Edge& e = batch[slot / 2];
    new_nodes.push_back(slot % 2 == 0 ? e.src : e.dst);
  }
  std::sort(new_nodes.begin(), new_nodes.end());
  new_nodes.erase(std::unique(new_nodes.begin(), new_nodes.end()),
                  new_nodes.end());
  stats.new_nodes = new_nodes.size();
  const auto provisional_of = [&](NodeId node) {
    const auto it =
        std::lower_bound(new_nodes.begin(), new_nodes.end(), node);
    DCHECK(it != new_nodes.end() && *it == node);
    return static_cast<SccId>(old_sccs + (it - new_nodes.begin()));
  };

  // 3. Classify each edge against the resident condensation.
  const graph::Digraph& dag = reader_->labels().dag();
  std::unordered_set<std::uint64_t> dag_edge_keys;
  dag_edge_keys.reserve(2 * dag.num_edges());
  for (std::size_t s = 0; s < dag.num_nodes(); ++s) {
    for (const std::uint32_t t : dag.out_neighbors(s)) {
      dag_edge_keys.insert(
          extsort::PackKey64(static_cast<std::uint32_t>(s), t));
    }
  }
  std::vector<Edge> new_inter;  // over provisional SCC ids
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const SccId su = resolved[2 * i] != graph::kInvalidScc
                         ? resolved[2 * i]
                         : provisional_of(batch[i].src);
    const SccId sv = resolved[2 * i + 1] != graph::kInvalidScc
                         ? resolved[2 * i + 1]
                         : provisional_of(batch[i].dst);
    if (su == sv) {
      ++stats.intra_scc;
    } else if (dag_edge_keys.count(extsort::PackKey64(su, sv)) > 0) {
      ++stats.duplicate_dag;
    } else {
      new_inter.push_back(Edge{su, sv});
      ++stats.new_dag_edges;
    }
  }

  // 4. The cheap path: nothing structural — every edge is intra-SCC or
  // duplicates a condensation edge, so the partition, the DAG, and
  // every label are already correct. Append to the delta log (keeping
  // the union edge count reconstructible) and stop.
  if (new_nodes.empty() && new_inter.empty()) {
    RETURN_IF_ERROR(AppendDeltaLog(context_, DeltaLogPathFor(path_),
                                   reader_->data_version(), batch));
    delta_edges_.insert(delta_edges_.end(), batch.begin(), batch.end());
    stats.batch_ios = (context_->stats() - before).total_ios();
    return stats;
  }

  // 5. Localized merge pass, in memory on the condensation: Tarjan over
  // old DAG ∪ new inter-SCC edges. A new "forward" edge only appears in
  // the DAG; a "backward" one closes a cycle and its component merges.
  const SccId num_provisional =
      old_sccs + static_cast<SccId>(new_nodes.size());
  std::vector<Edge> h_edges;
  h_edges.reserve(dag.num_edges() + new_inter.size());
  for (std::size_t s = 0; s < dag.num_nodes(); ++s) {
    for (const std::uint32_t t : dag.out_neighbors(s)) {
      h_edges.push_back(Edge{static_cast<NodeId>(s), t});
    }
  }
  h_edges.insert(h_edges.end(), new_inter.begin(), new_inter.end());
  std::vector<SccId> comp;
  SccId num_comps = 0;
  {
    std::vector<NodeId> h_nodes(num_provisional);
    std::iota(h_nodes.begin(), h_nodes.end(), 0);
    const graph::Digraph merged(std::move(h_nodes), h_edges);
    // merged's ids are 0..P-1, so its dense index == provisional id.
    comp = scc::TarjanSccDense(merged, &num_comps);
  }
  {
    std::vector<std::uint32_t> members(num_comps, 0);
    for (const SccId c : comp) ++members[c];
    for (const std::uint32_t m : members) {
      if (m >= 2) {
        ++stats.merge_groups;
        stats.merged_sccs += m;
      }
    }
  }

  // 6. Rewrite the artifact from the merged condensation with a bumped
  // data version. Canonical labels are assigned by first occurrence in
  // node order during the single merge-scan of the old map + sorted new
  // nodes — exactly what build-index writes for the union graph; the
  // shared writer derives every other section from the condensation.
  const std::uint64_t new_version = reader_->data_version() + 1;
  const ArtifactSummary& old_summary = reader_->summary();
  ArtifactSummary summary{};
  summary.graph_nodes = old_summary.graph_nodes + new_nodes.size();
  // Raw (pre-dedup) union edge count: the folded delta log plus this
  // batch, matching DiskGraph::num_edges of the union edge file.
  summary.graph_edges =
      old_summary.graph_edges + delta_edges_.size() + batch.size();
  summary.num_label_rounds = old_summary.num_label_rounds;
  summary.label_seed = old_summary.label_seed;
  summary.bowtie_computed = old_summary.bowtie_computed;

  const auto write_map = [&](serve::ArtifactWriter::SectionSink<SccEntry>*
                                 sink)
      -> util::Result<serve::ArtifactCondensation> {
    serve::ArtifactCondensation condensed;
    std::vector<SccId> canon(num_comps, graph::kInvalidScc);
    SccId next_canon = 0;
    serve::SccMapScanner scanner = reader_->OpenNodeSccScan();
    SccEntry cur{};
    bool have = scanner.Next(&cur);
    std::size_t new_at = 0;
    while (have || new_at < new_nodes.size()) {
      SccEntry entry;
      if (have &&
          (new_at == new_nodes.size() || cur.node < new_nodes[new_at])) {
        entry = cur;
        have = scanner.Next(&cur);
      } else {
        entry = SccEntry{new_nodes[new_at],
                         static_cast<SccId>(old_sccs + new_at)};
        ++new_at;
      }
      SccId& mapped = canon[comp[entry.scc]];
      if (mapped == graph::kInvalidScc) {
        mapped = next_canon++;
        condensed.scc_sizes.push_back(0);
      }
      ++condensed.scc_sizes[mapped];
      sink->Append(SccEntry{entry.node, mapped});
    }
    RETURN_IF_ERROR(scanner.status());
    // Every component holds at least one node, so the scan assigned
    // every canonical label.
    CHECK_EQ(next_canon, num_comps);

    // Condensation edges over canonical labels: sorted by (src, dst),
    // loops dropped, dedupped — BuildCondensation's layout.
    std::vector<Edge>& dag_edges = condensed.dag_edges;
    for (const Edge& e : h_edges) {
      const SccId a = canon[comp[e.src]];
      const SccId b = canon[comp[e.dst]];
      if (a != b) dag_edges.push_back(Edge{a, b});
    }
    std::sort(dag_edges.begin(), dag_edges.end(), graph::EdgeBySrc{});
    dag_edges.erase(std::unique(dag_edges.begin(), dag_edges.end()),
                    dag_edges.end());
    return condensed;
  };

  // 7. Validate the candidate end to end BEFORE it can become the live
  // version: a full reader open (resident sections, CRCs, geometry,
  // cross-section consistency) plus a sweep of the one section Open
  // does not touch. A version is only ever published after it proved
  // readable — a faulted write can cost this batch, never the index.
  std::optional<serve::ArtifactReader> candidate;
  const auto validate = [&](const std::string& tmp_path) -> util::Status {
    auto check = serve::ArtifactReader::Open(context_, tmp_path);
    RETURN_IF_ERROR(check.status());
    {
      serve::SccMapScanner scan = check.value().OpenNodeSccScan();
      SccEntry entry;
      while (scan.Next(&entry)) {
      }
      RETURN_IF_ERROR(scan.status());
    }
    candidate.emplace(std::move(check).value());
    return util::Status::Ok();
  };
  RETURN_IF_ERROR(
      serve::PublishArtifact(context_, path_, new_version, summary,
                             write_map, validate)
          .status());

  // 8. Published. The validated candidate is the live version now: serve
  // from it at the artifact path. Nothing after the rename may fail, or
  // a published version would be reported as a failed batch. The delta
  // log's edges are folded in; drop it (stale-by-version even if the
  // delete fails).
  RemoveDeltaLog(context_, DeltaLogPathFor(path_));
  candidate->Rebind(path_);
  reader_ = std::move(candidate);
  delta_edges_.clear();

  stats.rewrote_artifact = true;
  stats.published_version = new_version;
  stats.batch_ios = (context_->stats() - before).total_ios();
  return stats;
}

}  // namespace extscc::dyn
