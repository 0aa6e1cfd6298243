#include "common.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>

#include "io/storage.h"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    // A bare `--flag` is present with an empty value.
    const std::size_t eq = std::min(arg.find('='), arg.size());
    values_[arg.substr(2, eq - 2)] = arg.substr(std::min(eq + 1, arg.size()));
  }
}

std::string Flags::Str(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::uint64_t Flags::U64(const std::string& key, std::uint64_t def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def
                             : std::strtoull(it->second.c_str(), nullptr, 10);
}

std::unique_ptr<extscc::io::IoContext> MakeToolContext(
    std::uint64_t memory_bytes, const std::string& device_model) {
  extscc::io::IoContextOptions options;
  options.block_size = 64 * 1024;
  options.memory_bytes =
      std::max<std::uint64_t>(memory_bytes, 2 * options.block_size);
  if (!device_model.empty()) {
    const std::string error =
        extscc::io::ParseDeviceModelSpec(device_model, &options.device_model);
    if (!error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      std::exit(2);
    }
  }
  return std::make_unique<extscc::io::IoContext>(options);
}

Clock Clock::Now() {
  Clock c;
  c.wall = std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count();
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  c.cpu = static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  return c;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

void SpanRecorder::Close(const std::string& name, const Clock& start,
                         std::uint64_t start_ios) {
  const Clock end = Clock::Now();
  Totals& t = spans_[name];
  t.s += end.wall - start.wall;
  t.cpu_s += end.cpu - start.cpu;
  t.ios += context_->stats().total_ios() - start_ios;
}

double SpanRecorder::span_seconds() const {
  double sum = 0;
  for (const auto& [name, t] : spans_) sum += t.s;
  return sum;
}

bool LabelFingerprint::Add(std::uint64_t node, std::uint64_t label) {
  if (nodes_ > 0 && node <= last_node_) return false;
  if (label >= canonical_.size()) {
    canonical_.resize(std::max<std::size_t>(label + 1, 2 * canonical_.size()),
                      0);
  }
  if (canonical_[label] == 0) {
    canonical_[label] = static_cast<std::uint32_t>(++next_canonical_);
  }
  const std::uint64_t words[2] = {node, canonical_[label] - 1ull};
  unsigned char bytes[sizeof(words)];
  std::memcpy(bytes, words, sizeof(words));
  for (const unsigned char b : bytes) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  last_node_ = node;
  ++nodes_;
  return true;
}

std::string LabelFingerprint::Hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
  return buf;
}

bool FingerprintLabelFile(const std::string& path, LabelFingerprint* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  unsigned long long node = 0, label = 0;
  bool ok = true;
  int fields = 0;
  while ((fields = std::fscanf(f, "%llu %llu", &node, &label)) == 2) {
    if (!out->Add(node, label)) {
      ok = false;
      break;
    }
  }
  if (ok && fields != EOF) ok = false;  // trailing garbage
  std::fclose(f);
  return ok;
}

void JsonLine::Key(const std::string& key) {
  body_ += body_.empty() ? "{" : ", ";
  body_ += "\"" + key + "\": ";
}

void JsonLine::Num(const std::string& key, double value) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  body_ += buf;
}

void JsonLine::Int(const std::string& key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
}

void JsonLine::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + value + "\"";
}

void JsonLine::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
}

void JsonLine::Spans(const SpanRecorder& spans) {
  for (const auto& [name, t] : spans.spans()) {
    Num(name + ".s", t.s);
    Num(name + ".cpu_s", t.cpu_s);
    Int(name + ".ios", t.ios);
  }
}

void JsonLine::Print() const {
  std::printf("%s}\n", body_.empty() ? "{" : body_.c_str());
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
