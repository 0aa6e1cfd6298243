#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gen/classic_graphs.h"
#include "graph/digraph.h"
#include "graph/disk_graph.h"
#include "graph/edge_file.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/node_file.h"
#include "graph/scc_file.h"
#include "io/record_stream.h"
#include "test_util.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;
using graph::SccEntry;
using testing::MakeTestContext;

// ---------------- edge_file ----------------------------------------------

TEST(EdgeFileTest, SortAndCount) {
  auto ctx = MakeTestContext();
  const std::string raw = ctx->NewTempPath("raw");
  io::WriteAllRecords<Edge>(ctx.get(), raw, {{2, 1}, {1, 3}, {1, 2}, {2, 1}});
  EXPECT_EQ(graph::CountEdges(ctx.get(), raw), 4u);

  const std::string by_src = ctx->NewTempPath("bysrc");
  graph::SortEdgesBySrc(ctx.get(), raw, by_src);
  EXPECT_EQ(io::ReadAllRecords<Edge>(ctx.get(), by_src),
            (std::vector<Edge>{{1, 2}, {1, 3}, {2, 1}, {2, 1}}));

  const std::string dedup = ctx->NewTempPath("dedup");
  graph::SortEdgesBySrc(ctx.get(), raw, dedup, /*dedup=*/true);
  EXPECT_EQ(io::ReadAllRecords<Edge>(ctx.get(), dedup),
            (std::vector<Edge>{{1, 2}, {1, 3}, {2, 1}}));
}

TEST(EdgeFileTest, ReverseAndConcat) {
  auto ctx = MakeTestContext();
  const std::string a = ctx->NewTempPath("a");
  const std::string b = ctx->NewTempPath("b");
  io::WriteAllRecords<Edge>(ctx.get(), a, {{1, 2}, {3, 4}});
  io::WriteAllRecords<Edge>(ctx.get(), b, {{5, 6}});

  const std::string reversed = ctx->NewTempPath("rev");
  graph::ReverseEdges(ctx.get(), a, reversed);
  EXPECT_EQ(io::ReadAllRecords<Edge>(ctx.get(), reversed),
            (std::vector<Edge>{{2, 1}, {4, 3}}));

  const std::string both = ctx->NewTempPath("cat");
  graph::ConcatEdges(ctx.get(), a, b, both);
  EXPECT_EQ(io::ReadAllRecords<Edge>(ctx.get(), both),
            (std::vector<Edge>{{1, 2}, {3, 4}, {5, 6}}));
}

// ---------------- node_file ----------------------------------------------

TEST(NodeFileTest, SortDedupAndCanonicalCheck) {
  auto ctx = MakeTestContext();
  const std::string raw = ctx->NewTempPath("raw");
  io::WriteAllRecords<NodeId>(ctx.get(), raw, {5, 1, 5, 3, 1});
  const std::string canonical = ctx->NewTempPath("canon");
  graph::SortNodeFile(ctx.get(), raw, canonical);
  EXPECT_EQ(io::ReadAllRecords<NodeId>(ctx.get(), canonical),
            (std::vector<NodeId>{1, 3, 5}));
  EXPECT_TRUE(graph::IsNodeFileCanonical(ctx.get(), canonical));
  EXPECT_FALSE(graph::IsNodeFileCanonical(ctx.get(), raw));
  EXPECT_EQ(graph::CountNodes(ctx.get(), canonical), 3u);
}

TEST(NodeFileTest, Difference) {
  auto ctx = MakeTestContext();
  const std::string a = ctx->NewTempPath("a");
  const std::string b = ctx->NewTempPath("b");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords<NodeId>(ctx.get(), a, {1, 2, 3, 5, 8});
  io::WriteAllRecords<NodeId>(ctx.get(), b, {2, 5, 9});
  EXPECT_EQ(graph::NodeFileDifference(ctx.get(), a, b, out), 3u);
  EXPECT_EQ(io::ReadAllRecords<NodeId>(ctx.get(), out),
            (std::vector<NodeId>{1, 3, 8}));
}

TEST(NodeFileTest, DifferenceWithEmptySides) {
  auto ctx = MakeTestContext();
  const std::string a = ctx->NewTempPath("a");
  const std::string empty = ctx->NewTempPath("b");
  const std::string out = ctx->NewTempPath("out");
  io::WriteAllRecords<NodeId>(ctx.get(), a, {1, 2});
  io::WriteAllRecords<NodeId>(ctx.get(), empty, {});
  EXPECT_EQ(graph::NodeFileDifference(ctx.get(), a, empty, out), 2u);
  const std::string out2 = ctx->NewTempPath("out2");
  EXPECT_EQ(graph::NodeFileDifference(ctx.get(), empty, a, out2), 0u);
}

TEST(NodeFileTest, NodesFromEdges) {
  auto ctx = MakeTestContext();
  const std::string edges = ctx->NewTempPath("e");
  io::WriteAllRecords<Edge>(ctx.get(), edges, {{4, 2}, {2, 4}, {9, 9}});
  const std::string nodes = ctx->NewTempPath("n");
  graph::NodesFromEdges(ctx.get(), edges, nodes);
  EXPECT_EQ(io::ReadAllRecords<NodeId>(ctx.get(), nodes),
            (std::vector<NodeId>{2, 4, 9}));
}

// ---------------- scc_file -----------------------------------------------

TEST(SccFileTest, SortAndMerge) {
  auto ctx = MakeTestContext();
  const std::string raw = ctx->NewTempPath("raw");
  io::WriteAllRecords<SccEntry>(ctx.get(), raw, {{3, 0}, {1, 1}, {2, 0}});
  const std::string sorted = ctx->NewTempPath("sorted");
  graph::SortSccFileByNode(ctx.get(), raw, sorted);
  EXPECT_EQ(io::ReadAllRecords<SccEntry>(ctx.get(), sorted),
            (std::vector<SccEntry>{{1, 1}, {2, 0}, {3, 0}}));

  const std::string other = ctx->NewTempPath("other");
  io::WriteAllRecords<SccEntry>(ctx.get(), other, {{0, 5}, {4, 6}});
  const std::string merged = ctx->NewTempPath("merged");
  graph::MergeSccFiles(ctx.get(), sorted, other, merged);
  EXPECT_EQ(io::ReadAllRecords<SccEntry>(ctx.get(), merged),
            (std::vector<SccEntry>{{0, 5}, {1, 1}, {2, 0}, {3, 0}, {4, 6}}));

  const auto map = graph::ReadSccFile(ctx.get(), merged);
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.at(4), 6u);
}

TEST(SccFileDeathTest, MergeRejectsOverlappingNodeSets) {
  auto ctx = MakeTestContext();
  const std::string a = ctx->NewTempPath("a");
  const std::string b = ctx->NewTempPath("b");
  io::WriteAllRecords<SccEntry>(ctx.get(), a, {{1, 0}});
  io::WriteAllRecords<SccEntry>(ctx.get(), b, {{1, 9}});
  const std::string out = ctx->NewTempPath("out");
  EXPECT_DEATH(graph::MergeSccFiles(ctx.get(), a, b, out), "disjoint");
}

// ---------------- Digraph ------------------------------------------------

TEST(DigraphTest, CsrStructure) {
  const std::vector<Edge> edges{{10, 20}, {10, 30}, {20, 10}};
  graph::Digraph g(edges);
  ASSERT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  const std::size_t i10 = g.index_of(10);
  const std::size_t i20 = g.index_of(20);
  const std::size_t i30 = g.index_of(30);
  EXPECT_EQ(g.out_degree(i10), 2u);
  EXPECT_EQ(g.in_degree(i10), 1u);
  EXPECT_EQ(g.out_degree(i30), 0u);
  EXPECT_EQ(g.in_degree(i30), 1u);
  EXPECT_EQ(g.out_neighbors(i20).size(), 1u);
  EXPECT_EQ(g.out_neighbors(i20)[0], i10);
  EXPECT_EQ(g.index_of(999), g.num_nodes()) << "missing id sentinel";
  EXPECT_EQ(g.id_of(i10), 10u);
}

TEST(DigraphTest, IsolatedNodesViaExplicitList) {
  graph::Digraph g({42, 7}, {{1, 2}});
  EXPECT_EQ(g.num_nodes(), 4u);  // 1, 2, 7, 42
  EXPECT_EQ(g.out_degree(g.index_of(42)), 0u);
}

// ---------------- DiskGraph / builder / io -------------------------------

TEST(DiskGraphTest, MakeFromVectors) {
  auto ctx = MakeTestContext();
  const auto g = graph::MakeDiskGraph(ctx.get(), {{1, 2}, {2, 3}}, {99});
  EXPECT_EQ(g.num_nodes, 4u);
  EXPECT_EQ(g.num_edges, 2u);
  EXPECT_TRUE(graph::IsNodeFileCanonical(ctx.get(), g.node_path));
  EXPECT_NE(g.Describe().find("|V|=4"), std::string::npos);
}

TEST(GraphBuilderTest, StreamingBuild) {
  auto ctx = MakeTestContext();
  graph::GraphBuilder builder(ctx.get());
  for (NodeId v = 0; v < 1000; ++v) {
    builder.AddEdge(v, (v + 1) % 1000);
  }
  builder.AddNode(5000);
  const auto g = builder.Finish();
  EXPECT_EQ(g.num_edges, 1000u);
  EXPECT_EQ(g.num_nodes, 1001u);
}

TEST(GraphIoTest, TextRoundTrip) {
  auto ctx = MakeTestContext();
  // Text edge lists are user-facing files: real filesystem paths, not
  // scratch paths (which are virtual names under the mem/striped test
  // matrices).
  const std::string text_path = ::testing::TempDir() + "/extscc_graph.txt";
  {
    std::ofstream out(text_path);
    out << "# comment line\n";
    out << "1 2\n2 3\n3 1\n";
  }
  auto loaded = graph::LoadTextEdgeList(ctx.get(), text_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_edges, 3u);
  EXPECT_EQ(loaded.value().num_nodes, 3u);

  const std::string out_path = ::testing::TempDir() + "/extscc_out.txt";
  ASSERT_TRUE(
      graph::SaveTextEdgeList(ctx.get(), loaded.value(), out_path).ok());
  auto reloaded = graph::LoadTextEdgeList(ctx.get(), out_path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().num_edges, 3u);
}

TEST(GraphIoTest, MissingFileIsNotFound) {
  auto ctx = MakeTestContext();
  const auto result =
      graph::LoadTextEdgeList(ctx.get(), "/nonexistent/really/not.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST(GraphIoTest, MalformedLineIsCorruption) {
  auto ctx = MakeTestContext();
  const std::string path = ::testing::TempDir() + "/extscc_bad.txt";
  {
    std::ofstream out(path);
    out << "1 2\nnot an edge\n";
  }
  const auto result = graph::LoadTextEdgeList(ctx.get(), path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(GraphIoTest, BinaryEdgeFileValidation) {
  auto ctx = MakeTestContext();
  const std::string path = ctx->NewTempPath("edges.bin");
  io::WriteAllRecords<Edge>(ctx.get(), path, {{1, 2}});
  auto ok = graph::OpenBinaryEdgeFile(ctx.get(), path);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().num_edges, 1u);

  // Truncated file: not a whole number of records.
  const std::string bad = ::testing::TempDir() + "/extscc_bad.bin";
  {
    std::ofstream out(bad, std::ios::binary);
    out << "xyz";
  }
  auto corrupt = graph::OpenBinaryEdgeFile(ctx.get(), bad);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), util::StatusCode::kCorruption);

  auto missing = graph::OpenBinaryEdgeFile(ctx.get(), "/no/such/file.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

// ---------------- text edge-list parser vs. its oracle --------------------

// What a text load produced: the status, and the edges if it succeeded.
struct TextLoad {
  util::Status status;
  std::vector<Edge> edges;
};

// The retired per-line parser (std::getline + std::istringstream), kept
// verbatim as the oracle for graph::TextEdgeReader: same edges, same
// status code, same message (line number and quoted line included).
TextLoad OracleTextLoad(const std::string& text_path) {
  TextLoad out;
  std::ifstream in(text_path);
  if (!in) {
    out.status = util::Status::NotFound("cannot open edge list: " + text_path);
    return out;
  }
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream fields(line);
    std::uint64_t src = 0, dst = 0;
    if (!(fields >> src >> dst)) {
      out.status = util::Status::Corruption("malformed line " +
                                            std::to_string(line_no) + " in " +
                                            text_path + ": '" + line + "'");
      return out;
    }
    if (src > graph::kInvalidNode - 1 || dst > graph::kInvalidNode - 1) {
      out.status = util::Status::InvalidArgument(
          "node id out of 32-bit range at line " + std::to_string(line_no));
      return out;
    }
    out.edges.push_back(
        Edge{static_cast<NodeId>(src), static_cast<NodeId>(dst)});
  }
  return out;
}

// Loads `contents` through LoadTextEdgeList on `ctx` and through the
// oracle; asserts the same status (code and message) and, on success,
// the same edge file and node count.
void ExpectLoadMatchesOracle(io::IoContext* ctx, const std::string& contents,
                             const std::string& label) {
  SCOPED_TRACE(label);
  const std::string path = ::testing::TempDir() + "/extscc_parse.txt";
  std::ofstream(path, std::ios::binary) << contents;
  const TextLoad oracle = OracleTextLoad(path);
  auto loaded = graph::LoadTextEdgeList(ctx, path);
  ASSERT_EQ(loaded.status().code(), oracle.status.code())
      << loaded.status().ToString() << " vs oracle "
      << oracle.status.ToString();
  EXPECT_EQ(loaded.status().message(), oracle.status.message());
  if (!loaded.ok()) return;
  EXPECT_EQ(io::ReadAllRecords<Edge>(ctx, loaded.value().edge_path),
            oracle.edges);
  std::set<NodeId> nodes;
  for (const Edge& e : oracle.edges) {
    nodes.insert(e.src);
    nodes.insert(e.dst);
  }
  EXPECT_EQ(loaded.value().num_nodes, nodes.size());
  EXPECT_EQ(loaded.value().num_edges, oracle.edges.size());
}

// Every case the grammar in graph_io.h calls out. Each is loaded between
// valid edges (so the line number is checked too), as the last line
// without a newline, and alone.
const std::vector<std::string>& GrammarCases() {
  static const std::vector<std::string> cases = {
      "",                         // blank line
      "# comment",                // comments at column 0
      "% comment",
      "#",
      "  1 2",                    // leading spaces and tabs
      "\t1\t2",
      " \t 3 \t 4 \t ",
      "  # c",                    // not a comment: malformed
      "\t% c",
      "1 2\r",                    // CRLF
      "\r",                       // a lone CR: malformed
      "\r1 2",
      "1\r2",
      "\v1\f2",
      "1 2 3",                    // trailing third field
      "1 2x",                     // trailing junk after dst
      "1 2#c",
      "1x 2",
      "1#2",
      "+5 6",                     // signs
      "-1 2",
      "1 -2",
      "-0 3",
      "+0 -0",
      "+ 5 6",
      "5 +",
      "-",
      "--1 2",
      "+-1 2",
      "-18446744073709551615 7",  // wraps to 1
      "0x1 2",                    // no hex, no exponent, no fraction
      "1 0x5",
      "1e3 2",
      "1.5 2",
      "1 2.5",
      "007 0008",                 // leading zeros
      "4294967294 1",             // largest id
      "1 4294967294",
      "4294967295 1",             // kInvalidNode: out of range
      "1 4294967295",
      "4294967296 1",
      "18446744073709551615 1",   // 2^64 - 1: out of range
      "18446744073709551616 1",   // 2^64: overflow, malformed
      "1 99999999999999999999",   // 20-digit overflow
      "123456789012345678901234567890 1",
      "7",                        // missing dst
      "7 ",
      "x y",
      std::string("1\0 2", 4),    // embedded NUL
      std::string("1 2\0", 4),
      "\xef\xbb\xbf" "1 2",        // UTF-8 byte-order mark
  };
  return cases;
}

TEST(TextEdgeParserTest, GrammarMatchesRetiredParser) {
  for (const std::size_t block_size : {256u, 4096u}) {
    auto ctx = MakeTestContext(1 << 20, block_size);
    ExpectLoadMatchesOracle(ctx.get(), "", "empty file");
    ExpectLoadMatchesOracle(ctx.get(), "\n", "one blank line");
    ExpectLoadMatchesOracle(ctx.get(), "\n\n# only comments\n%\n",
                            "no edges");
    for (const std::string& line : GrammarCases()) {
      ExpectLoadMatchesOracle(ctx.get(), "10 11\n" + line + "\n12 13\n",
                              "between edges: '" + line + "'");
      ExpectLoadMatchesOracle(ctx.get(), "10 11\n" + line,
                              "last, no newline: '" + line + "'");
      ExpectLoadMatchesOracle(ctx.get(), line + "\n", "alone: '" + line + "'");
      ExpectLoadMatchesOracle(ctx.get(), line,
                              "alone, no newline: '" + line + "'");
    }
  }
}

TEST(TextEdgeParserTest, MissingFileMatchesRetiredParser) {
  auto ctx = MakeTestContext();
  const std::string path = "/nonexistent/really/not.txt";
  const auto loaded = graph::LoadTextEdgeList(ctx.get(), path);
  const TextLoad oracle = OracleTextLoad(path);
  EXPECT_EQ(loaded.status().code(), oracle.status.code());
  EXPECT_EQ(loaded.status().message(), oracle.status.message());
}

// With B = 256 the reader's chunk boundaries sit at file offsets k * 256.
// Each line below is placed so that every one of its byte offsets — mid
// number, mid whitespace, on its '\n', and inside a line longer than one
// chunk — falls on a boundary once.
TEST(TextEdgeParserTest, ChunkBoundarySweep) {
  constexpr std::size_t kBlock = 256;
  auto ctx = MakeTestContext(1 << 20, kBlock);
  const std::vector<std::string> lines = {
      "4294967294 123456789",
      " \t 77 \t\t 88 \t ",
      "1 2\r",
      "# a comment that is not an edge",
      "",
      "5 6 and a trailing field",
      std::string(300, ' ') + "31 41",          // longer than one chunk
      "9 " + std::string(600, '\t') + "10",
      "1 " + std::string(400, '7'),              // overflow across chunks
      "malformed " + std::string(500, 'x'),      // quoted in full
      "4294967295 1",
  };
  for (const std::string& line : lines) {
    for (std::size_t j = 0; j <= line.size(); ++j) {
      // Padding of exactly `pad` bytes puts a boundary at line byte j.
      std::size_t pad = (kBlock - j % kBlock) % kBlock;
      std::string padding;
      if (pad == 1) {
        padding = "\n";
      } else if (pad >= 2) {
        padding = "#" + std::string(pad - 2, 'p') + "\n";
      }
      for (const char* tail : {"\n3 4\n", "\n", ""}) {
        ExpectLoadMatchesOracle(
            ctx.get(), padding + line + tail,
            "boundary at byte " + std::to_string(j) + " of a " +
                std::to_string(line.size()) + "-byte line, tail '" + tail +
                "'");
      }
    }
  }
}

// Seeded random files built from the grammar's cases, loaded at a small
// block size so lines straddle chunks at arbitrary offsets.
TEST(TextEdgeParserTest, RandomFilesMatchRetiredParser) {
  auto ctx = MakeTestContext(1 << 20, 256);
  std::mt19937_64 rng(13);
  const std::vector<std::string>& cases = GrammarCases();
  const std::vector<std::string> valid = {"1 2", "  3\t4", "+5 6 7", "8 9\r",
                                          "# c", "", "4294967294 0"};
  for (int file = 0; file < 300; ++file) {
    std::string contents;
    const int num_lines = static_cast<int>(rng() % 200);
    // Most files are valid; one in four carries an arbitrary case.
    const bool any_case = rng() % 4 == 0;
    for (int i = 0; i < num_lines; ++i) {
      const auto& pool = any_case && rng() % 20 == 0 ? cases : valid;
      contents += pool[rng() % pool.size()];
      contents += rng() % 50 == 0 ? "\r\n" : "\n";
    }
    if (!contents.empty() && rng() % 2 == 0) contents.pop_back();
    ExpectLoadMatchesOracle(ctx.get(), contents,
                            "random file " + std::to_string(file));
  }
}

}  // namespace
}  // namespace extscc
