// build-index: one Ext-SCC solve persisted as a serve artifact, and the
// one writer every artifact goes through. BuildArtifact = RunExtScc +
// BuildArtifactFromLabels (canonical labels, condensation,
// PublishArtifact). PublishArtifact owns the layout: it derives the
// interval labels, summary and bow-tie from the resident condensation
// and publishes durably. The dynamic updater (src/dyn/) calls it too, so
// an update is byte-identical to a rebuild by construction.
#ifndef EXTSCC_SERVE_INDEX_BUILDER_H_
#define EXTSCC_SERVE_INDEX_BUILDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ext_scc.h"
#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "serve/artifact.h"
#include "serve/artifact_format.h"
#include "util/status.h"

namespace extscc::serve {

struct BuildArtifactOptions {
  core::ExtSccOptions solve = core::ExtSccOptions::Optimized();
  // Interval labeling rounds / RNG seed (see app::IntervalLabels).
  std::uint32_t num_labels = 3;
  std::uint64_t label_seed = 1;
  // Bow-tie region sizes, read off the condensation DAG (two in-memory
  // BFS passes); the artifact stores zeroed bow-tie fields when off.
  bool include_bowtie = true;
};

struct BuildArtifactResult {
  core::ExtSccStats solve_stats;
  ArtifactSummary summary{};
};

// Solves `g` and writes the artifact to `artifact_path` (any path whose
// device can rename; its storage device is resolved like every other
// file). Intermediate scratch lives and dies in `context`'s temp space.
// Zero label rounds, an empty graph, or a destination on the striped
// scratch device (which cannot host the durable publish) return
// kInvalidArgument before the solve starts.
util::Result<BuildArtifactResult> BuildArtifact(
    io::IoContext* context, const graph::DiskGraph& g,
    const std::string& artifact_path, const BuildArtifactOptions& options);

// The second step of BuildArtifact, for callers that already hold
// node-sorted (node, scc) labels at `raw_scc_path` with `num_sccs`
// dense labels (core::RunExtScc's output, any label values): canonical
// relabelling, condensation, then PublishArtifact. `options.solve` is
// unused. Same argument checks as BuildArtifact, plus kInvalidArgument
// when the label file does not cover the graph.
util::Result<ArtifactSummary> BuildArtifactFromLabels(
    io::IoContext* context, const graph::DiskGraph& g,
    const std::string& raw_scc_path, std::uint64_t num_sccs,
    const std::string& artifact_path, const BuildArtifactOptions& options);

// What the node→SCC map writer hands back: the condensation over the
// canonical SCC ids 0..S-1 it just wrote — edges sorted by (src, dst),
// loop-free and dedupped (BuildCondensation's layout) — and each SCC's
// node count, indexed by SCC id.
struct ArtifactCondensation {
  std::vector<graph::Edge> dag_edges;
  std::vector<std::uint64_t> scc_sizes;
};

using NodeSccMapWriter = std::function<util::Result<ArtifactCondensation>(
    ArtifactWriter::SectionSink<graph::SccEntry>* sink)>;
using ArtifactValidator =
    std::function<util::Status(const std::string& candidate_path)>;

// Writes a complete artifact with `data_version` to "<path>.tmp":
// `write_map` streams the node→SCC map section in node order and
// returns the condensation, from which this derives the other six
// sections. `summary` comes in value-initialized except for what the
// condensation does not determine: graph_nodes, graph_edges,
// num_label_rounds (>= 1), label_seed, and bowtie_computed (nonzero:
// compute the bow-tie). The candidate then passes `validate` (when
// given) and replaces `path` by io::DurableRename. On any failure the
// candidate is deleted and whatever `path` held stays live. Returns the
// summary written.
util::Result<ArtifactSummary> PublishArtifact(
    io::IoContext* context, const std::string& path,
    std::uint64_t data_version, ArtifactSummary summary,
    const NodeSccMapWriter& write_map,
    const ArtifactValidator& validate = nullptr);

}  // namespace extscc::serve

#endif  // EXTSCC_SERVE_INDEX_BUILDER_H_
