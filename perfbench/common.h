// Shared pieces of the benchmark binary: the tool's I/O configuration,
// wall/CPU clocks, peak-RSS probes, the span recorder used by traced
// runs, the canonical label fingerprint that the correctness gate
// compares, and a one-line JSON result writer.
//
// Nothing here reaches inside the engine: spans wrap calls into the
// library's public functions from the benchmark's own code.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/io_context.h"

namespace perfbench {

// `--key=value` flags after the subcommand word.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& def = "") const;
  std::uint64_t U64(const std::string& key, std::uint64_t def) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

// The IoContext `extscc_tool` builds: B = 64 KiB, M = max(memory, 2B),
// serial run formation and I/O (sort_threads = io_threads = 0), scratch
// under $TMPDIR. `device_model` is the tool's --device-model text
// ("" keeps the default posix device).
std::unique_ptr<extscc::io::IoContext> MakeToolContext(
    std::uint64_t memory_bytes, const std::string& device_model = "");

// Wall clock and this process's CPU clock, read together.
struct Clock {
  double wall = 0;
  double cpu = 0;
  static Clock Now();
};

// VmHWM of this process in MB (peak resident set since start or since
// the last ResetPeakRss()).
double PeakRssMb();
// Resets VmHWM to the current RSS so a later PeakRssMb() covers only
// the phase that follows. False when the kernel refuses.
bool ResetPeakRss();

// Accumulates named spans: wall seconds, CPU seconds and the block I/Os
// the context counted while the span was open. Same-named spans (one
// per contraction level, say) sum.
class SpanRecorder {
 public:
  explicit SpanRecorder(extscc::io::IoContext* context) : context_(context) {}

  struct Totals {
    double s = 0;
    double cpu_s = 0;
    std::uint64_t ios = 0;
  };

  // Runs `body` inside a span called `name`.
  template <typename Body>
  auto Run(const std::string& name, Body&& body) {
    const Clock start = Clock::Now();
    const std::uint64_t start_ios = context_->stats().total_ios();
    struct Closer {
      SpanRecorder* self;
      const std::string& name;
      Clock start;
      std::uint64_t start_ios;
      ~Closer() { self->Close(name, start, start_ios); }
    } closer{this, name, start, start_ios};
    return body();
  }

  const std::map<std::string, Totals>& spans() const { return spans_; }
  double span_seconds() const;

 private:
  void Close(const std::string& name, const Clock& start,
             std::uint64_t start_ios);

  extscc::io::IoContext* context_;
  std::map<std::string, Totals> spans_;
};

// Canonical fingerprint of an SCC labelling: nodes in increasing id
// order, labels renumbered by first occurrence (the scheme
// core::CanonicalizeLabels uses), hashed with 64-bit FNV-1a. Equal
// fingerprints mean equal partitions regardless of raw label values.
class LabelFingerprint {
 public:
  // Feeds the next (node, raw label) pair. False when nodes are not
  // strictly increasing.
  bool Add(std::uint64_t node, std::uint64_t label);
  std::uint64_t nodes() const { return nodes_; }
  std::string Hex() const;

 private:
  std::vector<std::uint32_t> canonical_;  // raw label -> canonical + 1
  std::uint64_t next_canonical_ = 0;
  std::uint64_t nodes_ = 0;
  std::uint64_t last_node_ = 0;
  std::uint64_t hash_ = 1469598103934665603ull;
};

// Reads a "node label" text file (the `solve` output format) into a
// fingerprint. False on a malformed or unsorted file.
bool FingerprintLabelFile(const std::string& path, LabelFingerprint* out);

// Builds one JSON object, printed on a single line.
class JsonLine {
 public:
  void Num(const std::string& key, double value);
  void Int(const std::string& key, std::uint64_t value);
  void Str(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  void Spans(const SpanRecorder& spans);
  void Print() const;

 private:
  std::string body_;
  void Key(const std::string& key);
};

// Median of `values` (0 when empty). Takes a copy: sorts it.
double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
