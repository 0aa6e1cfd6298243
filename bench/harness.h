// Shared figure-bench harness: runs DFS-SCC / Ext-SCC / Ext-SCC-Op on a
// freshly generated workload per sweep point, collects the paper's two
// metrics (wall time, number of block I/Os), censors DFS-SCC at an I/O
// budget (printed as INF, like the paper's 24-hour cap), prints an
// aligned table and writes a CSV next to the binary.
#ifndef EXTSCC_BENCH_HARNESS_H_
#define EXTSCC_BENCH_HARNESS_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/dfs_scc.h"
#include "baseline/em_scc.h"
#include "bench/workloads.h"
#include "core/ext_scc.h"
#include "graph/disk_graph.h"
#include "io/io_context.h"
#include "util/csv.h"
#include "util/parse.h"
#include "util/timer.h"

namespace extscc::bench {

using WorkloadFactory =
    std::function<graph::DiskGraph(io::IoContext* context)>;

struct AlgoResult {
  bool inf = false;          // censored (I/O budget) or stalled (EM-SCC)
  std::string inf_reason;
  double wall_seconds = 0;   // measured on this machine (page-cached)
  double seconds = 0;        // modeled HDD time (see workloads.h)
  std::uint64_t ios = 0;
  std::uint64_t random_ios = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sccs = 0;
  std::uint32_t levels = 0;  // Ext-SCC contraction levels
  // Parallel-bandwidth view: the busiest device's I/O count (the phase's
  // critical path when devices operate independently) and the per-device
  // breakdown as "name=ios|name=ios" (idle devices omitted).
  std::uint64_t max_dev_ios = 0;
  std::string device_ios;

  void FillFromStats(const io::IoStats& delta, double wall) {
    wall_seconds = wall;
    ios = delta.total_ios();
    random_ios = delta.random_ios();
    bytes = delta.bytes_read + delta.bytes_written;
    seconds = static_cast<double>(bytes) / kSeqBytesPerSecond +
              static_cast<double>(random_ios) * kSeekSeconds;
  }

  void FillFromDeviceStats(
      const std::vector<io::IoContext::DeviceStatsRow>& before,
      const std::vector<io::IoContext::DeviceStatsRow>& after) {
    max_dev_ios = 0;
    device_ios.clear();
    for (std::size_t i = 0; i < after.size(); ++i) {
      const io::IoStats delta = after[i].stats - before[i].stats;
      const std::uint64_t dev_ios = delta.total_ios();
      if (dev_ios == 0) continue;
      max_dev_ios = std::max(max_dev_ios, dev_ios);
      if (!device_ios.empty()) device_ios += '|';
      device_ios += after[i].name + "=" + std::to_string(dev_ios);
    }
  }

  std::string TimeCell() const {
    return inf ? "INF" : util::FormatDouble(seconds, 2);
  }
  std::string IoCell() const {
    return inf ? "INF" : util::FormatCount(ios);
  }
};

struct PointResult {
  std::string point_label;
  AlgoResult ext;     // Ext-SCC (basic)
  AlgoResult ext_op;  // Ext-SCC-Op
  AlgoResult dfs;     // DFS-SCC (censored)
  std::optional<AlgoResult> em;  // EM-SCC when requested
};

// ---- bench flags -----------------------------------------------------
// Opt-in overlap/striping knobs for every machine the benches build.
// All default off so the Aggarwal-Vitter accounting stays the paper's:
//
//  - `--io-threads=N` (EXTSCC_BENCH_IO_THREADS=N): the one concurrency
//    knob. Up to N I/O worker threads, one per storage device, keep
//    every sequential stream's read-ahead ring full and double-buffer
//    the merge output, and each run-forming sort hands full run
//    buffers to a worker that sorts and spills them while the producer
//    fills the next. Sorted outputs are byte-identical, but the I/O
//    *counts* can shift: file sorts halve their run buffers to
//    double-buffer, forming ~2x the runs (SortingWriter stages keep
//    identical geometry), and ring reservations change run geometry
//    slightly. The figure tables stay the paper's only at the
//    default 0.
//  - `--scratch-dirs=a,b,...` (EXTSCC_BENCH_SCRATCH_DIRS=a,b): stripe
//    scratch files round-robin across the listed directories (one per
//    spindle/NVMe namespace).
//  - `--device-model=posix|mem|throttled[:lat_us[:mb_per_s]]|`
//    `faulty[:seed=S,rate=R,...]` (EXTSCC_BENCH_DEVICE_MODEL): what
//    backs the scratch devices — real files, RAM (page-cache-free
//    microbenches), throttled files (simulated spindles so multi-device
//    speedup shows without real hardware), or seeded fault injection
//    (see io/storage.h FaultSpec for the key list — benchmarking the
//    retry/failover machinery under deterministic faults). Block
//    accounting is identical across models; injected retries are
//    counted separately (IoStats read_retries/write_retries), never as
//    model I/Os.
//  - `--placement=rr|spread|striped` (EXTSCC_BENCH_PLACEMENT): scratch
//    device assignment — round-robin (default, byte-identical tables),
//    spread-group (a merge group's runs on distinct devices by
//    construction), or striped (every scratch file's BLOCKS round-robin
//    across the devices, so one sequential stream runs at D× a single
//    device's bandwidth).
inline std::size_t& IoThreadsFlag() {
  static std::size_t threads = 0;
  return threads;
}

inline std::vector<std::string>& ScratchDirsFlag() {
  static std::vector<std::string> dirs;
  return dirs;
}

inline io::DeviceModelSpec& DeviceModelFlag() {
  static io::DeviceModelSpec spec;
  return spec;
}

inline io::PlacementPolicy& PlacementFlag() {
  static io::PlacementPolicy policy = io::PlacementPolicy::kRoundRobin;
  return policy;
}

inline void ParsePlacementOrDie(const char* text) {
  const std::string error = io::ParsePlacementSpec(text, &PlacementFlag());
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
}

inline void ParseDeviceModelOrDie(const char* text) {
  const std::string error =
      io::ParseDeviceModelSpec(text, &DeviceModelFlag());
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
}

// A numeric flag value or argument, parsed whole (util::ParseUnsigned);
// a malformed number exits 2 with the reason instead of running with a
// substituted setting.
inline std::uint64_t UnsignedOrDie(const char* what, std::string_view text) {
  std::uint64_t value = 0;
  if (!util::ParseUnsignedArg(what, text, &value)) std::exit(2);
  return value;
}

// "a,b,c": UnsignedOrDie on every element (an empty one is malformed).
inline std::vector<std::size_t> UnsignedListOrDie(const char* what,
                                                  std::string_view text) {
  std::vector<std::size_t> values;
  for (std::size_t comma = 0;; text.remove_prefix(comma + 1)) {
    comma = text.find(',');
    values.push_back(UnsignedOrDie(what, text.substr(0, comma)));
    if (comma == std::string_view::npos) return values;
  }
}

inline void ParseBenchFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--io-threads=", 13) == 0) {
      IoThreadsFlag() = UnsignedOrDie("--io-threads", argv[i] + 13);
    } else if (std::strncmp(argv[i], "--scratch-dirs=", 15) == 0) {
      ScratchDirsFlag() = util::SplitCommaList(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--device-model=", 15) == 0) {
      ParseDeviceModelOrDie(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--placement=", 12) == 0) {
      ParsePlacementOrDie(argv[i] + 12);
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (supported: --io-threads=N, "
                   "--scratch-dirs=a,b,..., "
                   "--device-model=posix|mem|throttled[:lat_us[:mb_per_s]]"
                   "|faulty[:seed=S,rate=R,...], "
                   "--placement=rr|spread|striped)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  if (const char* env = std::getenv("EXTSCC_BENCH_IO_THREADS")) {
    if (env[0] != '\0') {
      IoThreadsFlag() = UnsignedOrDie("EXTSCC_BENCH_IO_THREADS", env);
    }
  }
  if (const char* env = std::getenv("EXTSCC_BENCH_SCRATCH_DIRS")) {
    if (env[0] != '\0') ScratchDirsFlag() = util::SplitCommaList(env);
  }
  if (const char* env = std::getenv("EXTSCC_BENCH_DEVICE_MODEL")) {
    if (env[0] != '\0') ParseDeviceModelOrDie(env);
  }
  if (const char* env = std::getenv("EXTSCC_BENCH_PLACEMENT")) {
    if (env[0] != '\0') ParsePlacementOrDie(env);
  }
  // Reject a typo'd scratch list here, with the offending directory
  // named, instead of CHECK-failing deep inside the TempFileManager's
  // session-dir creation.
  const std::string error =
      io::ValidateScratchConfig(DeviceModelFlag(), ScratchDirsFlag());
  if (!error.empty()) {
    std::fprintf(stderr, "--scratch-dirs: %s\n", error.c_str());
    std::exit(2);
  }
}

inline std::unique_ptr<io::IoContext> MakeMachine(std::uint64_t memory) {
  io::IoContextOptions options;
  options.block_size = BlockSize();
  options.memory_bytes = memory;
  options.io_threads = IoThreadsFlag();
  options.scratch_dirs = ScratchDirsFlag();
  options.device_model = DeviceModelFlag();
  options.scratch_placement = PlacementFlag();
  return std::make_unique<io::IoContext>(options);
}

inline AlgoResult RunExtPoint(const WorkloadFactory& workload,
                              std::uint64_t memory, bool op_mode) {
  auto ctx = MakeMachine(memory);
  const auto g = workload(ctx.get());
  const std::string out = ctx->NewTempPath("scc");
  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  util::Timer timer;
  auto result = core::RunExtScc(ctx.get(), g, out,
                                op_mode ? core::ExtSccOptions::Optimized()
                                        : core::ExtSccOptions::Basic());
  AlgoResult algo;
  algo.FillFromStats(ctx->stats() - before, timer.ElapsedSeconds());
  algo.FillFromDeviceStats(dev_before, ctx->DeviceStats());
  if (!result.ok()) {
    algo.inf = true;
    algo.inf_reason = result.status().ToString();
    return algo;
  }
  algo.sccs = result.value().num_sccs;
  algo.levels = result.value().num_levels();
  return algo;
}

// DFS-SCC with the INF censoring budget derived from a reference I/O
// count (normally Ext-SCC-Op's on the same point).
inline AlgoResult RunDfsPoint(const WorkloadFactory& workload,
                              std::uint64_t memory,
                              std::uint64_t reference_ios) {
  auto ctx = MakeMachine(memory);
  const auto g = workload(ctx.get());
  ctx->set_io_budget(ctx->stats().total_ios() +
                     reference_ios * kInfBudgetFactor);
  const std::string out = ctx->NewTempPath("scc");
  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  util::Timer timer;
  auto result = baseline::RunDfsScc(ctx.get(), g, out);
  AlgoResult algo;
  algo.FillFromStats(ctx->stats() - before, timer.ElapsedSeconds());
  algo.FillFromDeviceStats(dev_before, ctx->DeviceStats());
  if (!result.ok()) {
    algo.inf = true;
    algo.inf_reason = result.status().ToString();
    return algo;
  }
  algo.sccs = result.value().num_sccs;
  return algo;
}

inline AlgoResult RunEmPoint(const WorkloadFactory& workload,
                             std::uint64_t memory,
                             std::uint64_t reference_ios) {
  auto ctx = MakeMachine(memory);
  const auto g = workload(ctx.get());
  ctx->set_io_budget(ctx->stats().total_ios() +
                     reference_ios * kInfBudgetFactor);
  const std::string out = ctx->NewTempPath("scc");
  const io::IoStats before = ctx->stats();
  const auto dev_before = ctx->DeviceStats();
  util::Timer timer;
  auto result = baseline::RunEmScc(ctx.get(), g, out);
  AlgoResult algo;
  algo.FillFromStats(ctx->stats() - before, timer.ElapsedSeconds());
  algo.FillFromDeviceStats(dev_before, ctx->DeviceStats());
  if (!result.ok()) {
    algo.inf = true;
    algo.inf_reason = result.status().ToString();
    return algo;
  }
  algo.sccs = result.value().num_sccs;
  return algo;
}

// Runs the three paper algorithms (optionally plus EM-SCC) on one point.
inline PointResult RunPoint(const std::string& label,
                            const WorkloadFactory& workload,
                            std::uint64_t memory, bool include_em = false) {
  PointResult point;
  point.point_label = label;
  std::fprintf(stderr, "  [point %s] Ext-SCC-Op...\n", label.c_str());
  point.ext_op = RunExtPoint(workload, memory, /*op_mode=*/true);
  std::fprintf(stderr, "  [point %s] Ext-SCC...\n", label.c_str());
  point.ext = RunExtPoint(workload, memory, /*op_mode=*/false);
  std::fprintf(stderr, "  [point %s] DFS-SCC (budget %llux)...\n",
               label.c_str(),
               static_cast<unsigned long long>(kInfBudgetFactor));
  point.dfs = RunDfsPoint(workload, memory, point.ext_op.ios);
  if (include_em) {
    std::fprintf(stderr, "  [point %s] EM-SCC...\n", label.c_str());
    point.em = RunEmPoint(workload, memory, point.ext_op.ios);
  }
  return point;
}

// Paper-style output: one time table and one I/O table per figure, plus
// a CSV dump for plotting.
inline void EmitFigure(const std::string& figure, const std::string& x_name,
                       const std::vector<PointResult>& points) {
  const bool with_em = !points.empty() && points.front().em.has_value();
  std::vector<std::string> header{x_name, "Ext-SCC-Op", "Ext-SCC",
                                  "DFS-SCC"};
  if (with_em) header.push_back("EM-SCC");

  util::Table time_table(header);
  util::Table io_table(header);
  util::Table csv({x_name, "algo", "modeled_time_s", "wall_time_s", "ios",
                   "random_ios", "max_dev_ios", "device_ios", "inf",
                   "sccs"});
  for (const auto& p : points) {
    std::vector<std::string> trow{p.point_label, p.ext_op.TimeCell(),
                                  p.ext.TimeCell(), p.dfs.TimeCell()};
    std::vector<std::string> iorow{p.point_label, p.ext_op.IoCell(),
                                   p.ext.IoCell(), p.dfs.IoCell()};
    if (with_em) {
      trow.push_back(p.em->TimeCell());
      iorow.push_back(p.em->IoCell());
    }
    time_table.AddRow(trow);
    io_table.AddRow(iorow);
    const auto add_csv = [&](const char* algo, const AlgoResult& r) {
      csv.AddRow({p.point_label, algo, util::FormatDouble(r.seconds, 4),
                  util::FormatDouble(r.wall_seconds, 4),
                  std::to_string(r.ios), std::to_string(r.random_ios),
                  std::to_string(r.max_dev_ios), r.device_ios,
                  r.inf ? "1" : "0", std::to_string(r.sccs)});
    };
    add_csv("ext_scc_op", p.ext_op);
    add_csv("ext_scc", p.ext);
    add_csv("dfs_scc", p.dfs);
    if (with_em) add_csv("em_scc", *p.em);
  }
  std::printf("\n=== %s — Time (modeled HDD seconds) ===\n%s",
              figure.c_str(), time_table.ToAligned().c_str());
  std::printf("\n=== %s — Number of I/Os ===\n%s", figure.c_str(),
              io_table.ToAligned().c_str());
  const std::string csv_path = figure + ".csv";
  if (csv.WriteCsvFile(csv_path)) {
    std::printf("\n[csv written to %s]\n", csv_path.c_str());
  }
}

}  // namespace extscc::bench

#endif  // EXTSCC_BENCH_HARNESS_H_
