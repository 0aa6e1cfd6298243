// `perfbench prepare`: generates a workload's input with the library's
// seeded web-graph generator and writes it as the text edge list the
// tool reads. With --oracle it also prints the canonical label
// fingerprint (common.h) of the graph's SCCs, which every solve of this
// input must reproduce.
//
// The oracle is this file's own Tarjan over a CSR indexed by node id:
// ~0.7 s at 10^7 edges, where building a graph::Digraph alone takes
// several seconds. --check-oracle also runs the library's
// scc::TarjanSccDense and fails unless both fingerprints agree; the
// smoke test uses it at toy size.
//
//   perfbench prepare --nodes=N --seed=S --out=edges.txt [--oracle]
//                     [--check-oracle]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.h"
#include "gen/webgraph_generator.h"
#include "graph/digraph.h"
#include "graph/graph_io.h"
#include "io/record_stream.h"
#include "scc/tarjan.h"

namespace perfbench {

using namespace extscc;

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

// Fingerprint of the SCC partition of `edges` (nodes = endpoints) by
// iterative Tarjan over a forward CSR indexed by raw node id.
void OracleFingerprint(const std::vector<graph::Edge>& edges,
                       LabelFingerprint* fingerprint) {
  std::uint32_t max_id = 0;
  for (const graph::Edge& e : edges) max_id = std::max({max_id, e.src, e.dst});
  const std::size_t n = edges.empty() ? 0 : std::size_t{max_id} + 1;
  std::vector<bool> present(n, false);
  std::vector<std::uint32_t> offset(n + 1, 0), target(edges.size());
  for (const graph::Edge& e : edges) {
    present[e.src] = present[e.dst] = true;
    ++offset[e.src + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  {
    std::vector<std::uint32_t> fill(offset.begin(), offset.end() - 1);
    for (const graph::Edge& e : edges) target[fill[e.src]++] = e.dst;
  }

  std::vector<std::uint32_t> index(n, kNone), low(n, 0), label(n, kNone);
  std::vector<std::uint32_t> scc_stack, edge_pos, dfs;
  std::uint32_t next_index = 0, next_label = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (!present[root] || index[root] != kNone) continue;
    index[root] = low[root] = next_index++;
    scc_stack.push_back(root);
    dfs.push_back(root);
    edge_pos.push_back(offset[root]);
    while (!dfs.empty()) {
      const std::uint32_t v = dfs.back();
      if (edge_pos.back() < offset[v + 1]) {
        const std::uint32_t w = target[edge_pos.back()++];
        if (index[w] == kNone) {
          index[w] = low[w] = next_index++;
          scc_stack.push_back(w);
          dfs.push_back(w);
          edge_pos.push_back(offset[w]);
        } else if (label[w] == kNone) {  // w still on the SCC stack
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      dfs.pop_back();
      edge_pos.pop_back();
      if (low[v] == index[v]) {
        std::uint32_t member = kNone;
        do {
          member = scc_stack.back();
          scc_stack.pop_back();
          label[member] = next_label;
        } while (member != v);
        ++next_label;
      }
      if (!dfs.empty()) low[dfs.back()] = std::min(low[dfs.back()], low[v]);
    }
  }
  for (std::uint32_t id = 0; id < n; ++id) {
    if (present[id]) fingerprint->Add(id, label[id]);
  }
}

// The same fingerprint through the library's Digraph + TarjanSccDense.
std::string LibraryFingerprint(const std::vector<graph::Edge>& edges) {
  const graph::Digraph digraph(edges);
  graph::SccId next = 0;
  const std::vector<graph::SccId> labels = scc::TarjanSccDense(digraph, &next);
  LabelFingerprint fingerprint;
  for (std::size_t i = 0; i < digraph.num_nodes(); ++i) {
    fingerprint.Add(digraph.id_of(i), labels[i]);
  }
  return fingerprint.Hex();
}

}  // namespace

int CmdPrepare(const Flags& flags) {
  const std::string out = flags.Str("out");
  if (out.empty() || !flags.Has("nodes")) {
    std::fprintf(stderr, "prepare: --nodes and --out are required\n");
    return 2;
  }
  auto context = MakeToolContext(64ull << 20);
  gen::WebGraphParams params;
  params.num_nodes = flags.U64("nodes", 0);
  params.seed = flags.U64("seed", 1);
  const graph::DiskGraph g = gen::GenerateWebGraph(context.get(), params);
  const util::Status saved = graph::SaveTextEdgeList(context.get(), g, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "prepare: %s\n", saved.ToString().c_str());
    return 1;
  }

  JsonLine json;
  if (flags.Has("oracle") || flags.Has("check-oracle")) {
    // The text edge list drops isolated nodes, so the oracle's node set
    // is the edge endpoints, as the solver will see it.
    const std::vector<graph::Edge> edges =
        io::ReadAllRecords<graph::Edge>(context.get(), g.edge_path);
    LabelFingerprint fingerprint;
    OracleFingerprint(edges, &fingerprint);
    json.Str("fingerprint", fingerprint.Hex());
    json.Int("nodes", fingerprint.nodes());
    if (flags.Has("check-oracle") &&
        LibraryFingerprint(edges) != fingerprint.Hex()) {
      std::fprintf(stderr, "prepare: oracle disagrees with scc::Tarjan\n");
      return 1;
    }
  }
  json.Print();
  return 0;
}

}  // namespace perfbench
