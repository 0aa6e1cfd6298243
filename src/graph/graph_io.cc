#include "graph/graph_io.h"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "graph/graph_builder.h"
#include "io/record_stream.h"
#include "io/storage.h"
#include "io/temp_file_manager.h"

namespace extscc::graph {

namespace {

// The classic-locale isspace set, less '\n' (which ends a line).
bool IsFieldSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Parses one field of the grammar in graph_io.h starting at *cursor and
// advances past its last digit. False if there are no digits or the value
// does not fit in 64 bits.
bool ParseField(const char** cursor, const char* end, std::uint64_t* value) {
  const char* p = *cursor;
  while (p != end && IsFieldSpace(*p)) ++p;
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  const char* digits = p;
  std::uint64_t v = 0;
  for (; p != end; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - '0';
    if (digit > 9) break;
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    v = v * 10 + digit;
  }
  if (p == digits) return false;
  *value = negative ? 0 - v : v;
  *cursor = p;
  return true;
}

}  // namespace

TextEdgeReader::TextEdgeReader(io::IoContext* context,
                               const std::string& text_path)
    : path_(text_path),
      file_(std::fopen(text_path.c_str(), "rb")),
      chunk_(context->block_size()) {
  if (file_ == nullptr) {
    status_ = util::Status::NotFound("cannot open edge list: " + text_path);
    return;
  }
  // Reads go straight into chunk_; no second stdio buffer.
  std::setvbuf(file_.get(), nullptr, _IONBF, 0);
}

bool TextEdgeReader::Next(Edge* edge) {
  std::string_view line;
  while (NextLine(&line)) {
    ++line_number_;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const char* cursor = line.data();
    const char* end = cursor + line.size();
    std::uint64_t src = 0, dst = 0;
    if (!ParseField(&cursor, end, &src) || !ParseField(&cursor, end, &dst)) {
      status_ = util::Status::Corruption(
          "malformed line " + std::to_string(line_number_) + " in " + path_ +
          ": '" + std::string(line) + "'");
      return false;
    }
    if (src > kInvalidNode - 1 || dst > kInvalidNode - 1) {
      status_ = util::Status::InvalidArgument(
          "node id out of 32-bit range at line " +
          std::to_string(line_number_));
      return false;
    }
    *edge = Edge{static_cast<NodeId>(src), static_cast<NodeId>(dst)};
    return true;
  }
  return false;
}

// Points *line at the next line, without its '\n'. A line inside the
// current chunk is viewed in place; one that straddles a chunk boundary
// is assembled in carry_.
bool TextEdgeReader::NextLine(std::string_view* line) {
  if (!status_.ok()) return false;
  carry_.clear();
  for (;;) {
    if (pos_ < end_) {
      const char* begin = chunk_.data() + pos_;
      const auto* newline =
          static_cast<const char*>(std::memchr(begin, '\n', end_ - pos_));
      if (newline != nullptr) {
        pos_ += static_cast<std::size_t>(newline - begin) + 1;
        if (carry_.empty()) {
          *line = std::string_view(begin, newline - begin);
        } else {
          carry_.append(begin, newline);
          *line = carry_;
        }
        return true;
      }
      carry_.append(begin, end_ - pos_);
      pos_ = end_;
    }
    if (!Refill()) {
      if (!status_.ok() || carry_.empty()) return false;
      *line = carry_;  // the last line has no '\n'
      return true;
    }
  }
}

bool TextEdgeReader::Refill() {
  if (eof_ || !status_.ok()) return false;
  const std::size_t n =
      std::fread(chunk_.data(), 1, chunk_.size(), file_.get());
  if (n < chunk_.size()) {
    if (std::ferror(file_.get())) {
      status_ = util::Status::IoError("read error in edge list: " + path_);
      return false;
    }
    eof_ = true;
  }
  pos_ = 0;
  end_ = n;
  return n > 0;
}

util::Result<DiskGraph> LoadTextEdgeList(io::IoContext* context,
                                         const std::string& text_path) {
  TextEdgeReader reader(context, text_path);
  if (!reader.status().ok()) return reader.status();
  GraphBuilder builder(context);
  Edge edge;
  while (reader.Next(&edge)) builder.AddEdge(edge);
  if (!reader.status().ok()) return reader.status();
  return builder.Finish();
}

util::Status SaveTextEdgeList(io::IoContext* context, const DiskGraph& graph,
                              const std::string& text_path) {
  std::ofstream out(text_path);
  if (!out) {
    return util::Status::IoError("cannot create " + text_path);
  }
  io::RecordReader<Edge> reader(context, graph.edge_path);
  Edge e;
  while (reader.Next(&e)) {
    out << e.src << ' ' << e.dst << '\n';
  }
  if (!out) {
    return util::Status::IoError("short write to " + text_path);
  }
  return util::Status::Ok();
}

util::Result<DiskGraph> OpenBinaryEdgeFile(io::IoContext* context,
                                           const std::string& edge_path) {
  // Scratch paths are virtual names only their device can resolve
  // (mem://, striped://); everything else is a real file the
  // filesystem can stat.
  std::uint64_t size = 0;
  if (io::StorageDevice* device =
          context->temp_files().DeviceForPath(edge_path)) {
    std::unique_ptr<io::StorageFile> file;
    const util::Status opened =
        device->Open(edge_path, io::OpenMode::kRead, &file);
    if (!opened.ok()) {
      return util::Status::NotFound("cannot stat edge file: " + edge_path);
    }
    size = file->size_bytes();
  } else {
    std::error_code ec;
    size = std::filesystem::file_size(edge_path, ec);
    if (ec) {
      return util::Status::NotFound("cannot stat edge file: " + edge_path);
    }
  }
  if (size % sizeof(Edge) != 0) {
    return util::Status::Corruption(edge_path +
                                    " is not a whole number of edge records");
  }
  return AssembleDiskGraph(context, edge_path);
}

}  // namespace extscc::graph
