// User-facing graph loading/saving: whitespace-separated text edge lists
// and the library's binary edge format. These are the only
// Status-returning entry points in the graph layer — user files may be
// missing or malformed.
//
// Text edge-list grammar. This is the one definition: every command that
// reads edges from text (`extscc_tool solve`, `verify`, `condense`,
// `build-index` and `update --edges`) goes through TextEdgeReader.
//
//   - The file is split into lines at '\n'. A last line without a '\n'
//     still counts; an empty file holds no edges. Lines are numbered
//     from 1, skipped lines included.
//   - A line is skipped if it is empty or its first byte is '#' or '%'.
//     Only column 0 marks a comment: "  # c" is a malformed line.
//   - Any other line holds two fields, src then dst. A field is optional
//     whitespace (space, \t, \v, \f, \r), an optional '+' or '-', and one
//     or more decimal digits whose value fits in 64 bits. A '-' negates
//     the value modulo 2^64, so "-1" is 2^64 - 1 and fails the range
//     check below (and "-0" is 0).
//   - Whatever follows dst's last digit is ignored: "1 2 3", "1 2x" and
//     "1 2\r" (a CRLF line) are all the edge 1 -> 2. A lone "\r" line is
//     malformed, and so are "0x1 2" and "1e3 2".
//   - A line without two such fields, or with a field beyond 64 bits, is
//     kCorruption "malformed line N in PATH: 'LINE'".
//   - A node id >= 2^32 - 1 (kInvalidNode) is kInvalidArgument "node id
//     out of 32-bit range at line N".
//
// This is exactly what a per-line `std::istream >> std::uint64_t` accepts;
// tests/graph_test.cc checks the parser against such a loop.
#ifndef EXTSCC_GRAPH_GRAPH_IO_H_
#define EXTSCC_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/disk_graph.h"
#include "graph/graph_types.h"
#include "io/io_context.h"
#include "util/status.h"

namespace extscc::graph {

// Streams the edges of a text edge list (grammar above). The file is read
// in chunks of one block B — the per-stream buffer every record stream
// holds without a budget reservation — and parsed in place; only a line
// that straddles a chunk boundary is copied. Text reads are user-file
// traffic, not model I/Os, so they do not touch the context's IoStats.
class TextEdgeReader {
 public:
  TextEdgeReader(io::IoContext* context, const std::string& text_path);

  // Stores the next edge. Returns false at the end of the file and at the
  // first error, after which it keeps returning false.
  bool Next(Edge* edge);

  // kOk while reading and after a clean end of file; otherwise the first
  // error: kNotFound (cannot open), kIoError (read failure), or the
  // grammar's kCorruption / kInvalidArgument.
  const util::Status& status() const { return status_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  bool NextLine(std::string_view* line);
  bool Refill();

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::vector<char> chunk_;
  std::size_t pos_ = 0;  // unread bytes are chunk_[pos_, end_)
  std::size_t end_ = 0;
  bool eof_ = false;
  std::string carry_;  // the current line, if it straddles chunks
  std::uint64_t line_number_ = 0;
  util::Status status_;
};

// Parses a text edge list at `text_path` into a DiskGraph backed by
// scratch files of `context`.
util::Result<DiskGraph> LoadTextEdgeList(io::IoContext* context,
                                         const std::string& text_path);

// Writes `graph`'s edges as a text edge list.
util::Status SaveTextEdgeList(io::IoContext* context, const DiskGraph& graph,
                              const std::string& text_path);

// Opens a binary Edge-record file that already exists outside the scratch
// directory and assembles its DiskGraph.
util::Result<DiskGraph> OpenBinaryEdgeFile(io::IoContext* context,
                                           const std::string& edge_path);

}  // namespace extscc::graph

#endif  // EXTSCC_GRAPH_GRAPH_IO_H_
