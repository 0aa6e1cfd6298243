#include "serve/index_builder.h"

#include <numeric>
#include <utility>
#include <vector>

#include "app/bowtie.h"
#include "app/interval_labels.h"
#include "core/canonical_labels.h"
#include "graph/digraph.h"
#include "io/durability.h"
#include "io/record_stream.h"
#include "io/storage.h"
#include "scc/condensation.h"

namespace extscc::serve {

namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccEntry;

// The checks both build entry points make before any real work.
util::Status CheckBuildArguments(io::IoContext* context,
                                 const graph::DiskGraph& g,
                                 const std::string& artifact_path,
                                 const BuildArtifactOptions& options) {
  if (options.num_labels == 0) {
    return util::Status::InvalidArgument(
        "artifact needs at least one interval labeling round");
  }
  if (g.num_nodes == 0) {
    return util::Status::InvalidArgument(
        "cannot build a serve artifact over an empty graph");
  }
  // A striped file is a fixed registration of parts: it cannot take the
  // "<path>.tmp" → rename publish. Say so now, not after a full solve.
  if (dynamic_cast<io::StripedDevice*>(
          context->ResolveDevice(artifact_path)) != nullptr) {
    return util::Status::InvalidArgument(
        "artifact path " + artifact_path +
        " is on the striped scratch device, which cannot publish by "
        "rename; put the artifact on a plain filesystem path");
  }
  return util::Status::Ok();
}

}  // namespace

util::Result<BuildArtifactResult> BuildArtifact(
    io::IoContext* context, const graph::DiskGraph& g,
    const std::string& artifact_path, const BuildArtifactOptions& options) {
  RETURN_IF_ERROR(CheckBuildArguments(context, g, artifact_path, options));
  BuildArtifactResult result;

  // The expensive out-of-core step: Ext-SCC labels, node-sorted.
  const std::string raw_scc_path = context->NewTempPath("serve_scc");
  {
    auto solved = core::RunExtScc(context, g, raw_scc_path, options.solve);
    RETURN_IF_ERROR(solved.status());
    result.solve_stats = solved.value();
  }
  auto summary =
      BuildArtifactFromLabels(context, g, raw_scc_path,
                              result.solve_stats.num_sccs, artifact_path,
                              options);
  RETURN_IF_ERROR(summary.status());
  result.summary = summary.value();
  return result;
}

util::Result<ArtifactSummary> BuildArtifactFromLabels(
    io::IoContext* context, const graph::DiskGraph& g,
    const std::string& raw_scc_path, std::uint64_t num_sccs,
    const std::string& artifact_path, const BuildArtifactOptions& options) {
  RETURN_IF_ERROR(CheckBuildArguments(context, g, artifact_path, options));
  if (io::NumRecordsInFile<SccEntry>(context, raw_scc_path) != g.num_nodes) {
    return util::Status::InvalidArgument(
        "SCC file does not label every node of the graph");
  }

  // Canonicalize: the solver's label VALUES depend on its internal
  // traversal order, so rewrite them dense-by-first-occurrence in node
  // order. Every artifact section downstream is then a pure function of
  // the graph — the property that lets the incremental updater
  // (src/dyn/) produce artifacts byte-identical to a full re-solve.
  const std::string scc_path = context->NewTempPath("serve_canon");
  RETURN_IF_ERROR(
      core::CanonicalizeLabels(context, raw_scc_path, num_sccs, scc_path));

  // Condensation DAG, loaded resident (small by construction). Its node
  // file is exactly the canonical ids 0..S-1.
  const auto condensation = scc::BuildCondensation(context, g, scc_path);
  ArtifactCondensation condensed;
  condensed.dag_edges =
      io::ReadAllRecords<Edge>(context, condensation.dag.edge_path);
  condensed.scc_sizes.assign(static_cast<std::size_t>(num_sccs), 0);

  ArtifactSummary summary{};
  summary.graph_nodes = g.num_nodes;
  summary.graph_edges = g.num_edges;
  summary.num_label_rounds = options.num_labels;
  summary.label_seed = options.label_seed;
  summary.bowtie_computed = options.include_bowtie ? 1 : 0;
  return PublishArtifact(
      context, artifact_path, /*data_version=*/0, summary,
      [&](ArtifactWriter::SectionSink<SccEntry>* sink)
          -> util::Result<ArtifactCondensation> {
        // The map streams straight from the canonical label file
        // (dense in [0, num_sccs): CanonicalizeLabels checked), counting
        // each SCC's size on the way.
        io::RecordReader<SccEntry> reader(context, scc_path);
        SccEntry entry;
        while (reader.Next(&entry)) {
          ++condensed.scc_sizes[entry.scc];
          sink->Append(entry);
        }
        RETURN_IF_ERROR(reader.status());
        return std::move(condensed);
      });
}

util::Result<ArtifactSummary> PublishArtifact(
    io::IoContext* context, const std::string& path,
    std::uint64_t data_version, ArtifactSummary summary,
    const NodeSccMapWriter& write_map, const ArtifactValidator& validate) {
  const std::string tmp_path = path + ".tmp";
  util::Status status = [&]() -> util::Status {
    ArtifactWriter writer(context, tmp_path, data_version);
    RETURN_IF_ERROR(writer.status());
    auto map_sink = writer.BeginSection<SccEntry>(SectionId::kNodeSccMap);
    auto written = write_map(&map_sink);
    RETURN_IF_ERROR(written.status());
    writer.EndSection();
    const ArtifactCondensation& condensed = written.value();
    const std::vector<std::uint64_t>& sizes = condensed.scc_sizes;

    std::vector<NodeId> dag_nodes(sizes.size());
    std::iota(dag_nodes.begin(), dag_nodes.end(), 0);
    const app::IntervalLabels labels = app::IntervalLabels::Build(
        graph::Digraph(dag_nodes, condensed.dag_edges),
        summary.num_label_rounds, summary.label_seed);
    const std::size_t dag_n = labels.dag().num_nodes();

    summary.num_sccs = sizes.size();
    summary.dag_nodes = sizes.size();
    summary.dag_edges = condensed.dag_edges.size();
    summary.largest_scc = graph::kInvalidScc;
    summary.core_scc = graph::kInvalidScc;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      if (sizes[s] > summary.largest_scc_size) {
        summary.largest_scc_size = sizes[s];
        summary.largest_scc = static_cast<graph::SccId>(s);
      }
      if (sizes[s] == 1) ++summary.num_singletons;
    }
    // Bow-tie around the largest SCC (the first of the largest on a
    // tie). A node reaches the core iff its SCC does, so region sizes
    // come from the resident DAG — no pass over the edge file.
    if (summary.bowtie_computed != 0) {
      const app::DagBowtieSizes bowtie =
          app::BowtieSizesFromDag(labels.dag(), sizes, summary.largest_scc);
      summary.core_scc = summary.largest_scc;
      summary.core_size = bowtie.core_size;
      summary.in_size = bowtie.in_size;
      summary.out_size = bowtie.out_size;
      summary.other_size = bowtie.other_size;
    }

    {
      auto sink = writer.BeginSection<NodeId>(SectionId::kDagNodes);
      sink.AppendBatch(dag_nodes.data(), dag_nodes.size());
      writer.EndSection();
    }
    {
      auto sink = writer.BeginSection<Edge>(SectionId::kDagEdges);
      sink.AppendBatch(condensed.dag_edges.data(),
                       condensed.dag_edges.size());
      writer.EndSection();
    }
    {
      auto sink = writer.BeginSection<std::uint32_t>(SectionId::kLabelRanks);
      for (std::uint32_t r = 0; r < summary.num_label_rounds; ++r) {
        sink.AppendBatch(labels.ranks(r).data(), dag_n);
      }
      writer.EndSection();
    }
    {
      auto sink = writer.BeginSection<std::uint32_t>(SectionId::kLabelMins);
      for (std::uint32_t r = 0; r < summary.num_label_rounds; ++r) {
        sink.AppendBatch(labels.mins(r).data(), dag_n);
      }
      writer.EndSection();
    }
    {
      auto sink = writer.BeginSection<std::uint64_t>(SectionId::kSccSizes);
      sink.AppendBatch(sizes.data(), sizes.size());
      writer.EndSection();
    }
    {
      auto sink = writer.BeginSection<ArtifactSummary>(SectionId::kSummary);
      sink.Append(summary);
      writer.EndSection();
    }
    return writer.Finish();
  }();

  // Publish by durable rename (Finish() already fsynced the candidate's
  // bytes; the rename + parent-directory fsync make the swap itself
  // survive power loss), so a build or update killed mid-write never
  // leaves a torn file at `path`.
  if (status.ok() && validate) status = validate(tmp_path);
  if (status.ok()) status = io::DurableRename(context, tmp_path, path);
  if (!status.ok()) {
    (void)context->ResolveDevice(tmp_path)->Delete(tmp_path);
    return status;
  }
  return summary;
}

}  // namespace extscc::serve
