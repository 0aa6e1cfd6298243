// Equivalence and accounting tests for the device-parallel I/O engine
// (read_scheduler.h, IoContextOptions::io_threads): every sorter entry
// point must produce byte-identical output at io_threads in {1, 2, 4}
// vs the serial engine, per-device IoStats must still sum exactly to
// the aggregate while concurrent merge reads are issued from device
// workers, off-sequence reads must fall back to direct service, and a
// budget too tight for the read-ahead rings must degrade instead of
// deadlock or abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/ext_scc.h"
#include "extsort/external_sorter.h"
#include "gen/synthetic_generator.h"
#include "graph/graph_types.h"
#include "io/block_file.h"
#include "io/record_stream.h"
#include "test_util.h"
#include "util/random.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;

// io_threads is this suite's subject, so the explicit parameter wins
// over EXTSCC_TEST_IO_THREADS; the other env overrides (device model,
// scratch dirs) still reach every context built here.
std::unique_ptr<io::IoContext> MakeContext(
    std::uint64_t memory, std::size_t block, std::size_t io_threads,
    std::size_t num_devices = 1,
    io::PlacementPolicy placement = io::PlacementPolicy::kRoundRobin,
    io::DeviceModel model = io::DeviceModel::kMem) {
  io::IoContextOptions options;
  options.block_size = block;
  options.memory_bytes = memory;
  options.device_model.model = model;
  // Under kMem the scratch_dirs entries only set the device count.
  for (std::size_t i = 0; i < num_devices; ++i) {
    options.scratch_dirs.push_back("dev" + std::to_string(i));
  }
  options.scratch_placement = placement;
  testing::ApplyTestEnvOptions(&options);
  options.io_threads = io_threads;
  return std::make_unique<io::IoContext>(options);
}

std::vector<Edge> RandomEdges(std::size_t n, std::uint64_t seed,
                              std::uint32_t range) {
  util::Rng rng(seed);
  std::vector<Edge> out(n);
  for (auto& e : out) {
    e.src = static_cast<NodeId>(rng.Uniform(range));
    e.dst = static_cast<NodeId>(rng.Uniform(range));
  }
  return out;
}

TEST(ReadSchedulerTest, SequentialReadMatchesDirectAndCountsIdentically) {
  // The scheduler path must return the same bytes AND the same counted
  // I/Os as the direct path for a plain sequential scan, including the
  // partial final block.
  const auto edges = RandomEdges(5'000, 7, 1u << 20);  // 40000 B: 9.77 blocks
  auto scan = [&](std::size_t io_threads) {
    auto ctx = MakeContext(1 << 20, 4096, io_threads);
    const std::string path = ctx->NewTempPath("scan");
    io::WriteAllRecords(ctx.get(), path, edges);
    const auto before = ctx->stats();
    const auto got = io::ReadAllRecords<Edge>(ctx.get(), path);
    const auto delta = ctx->stats() - before;
    return std::make_pair(got, delta);
  };
  const auto [serial, serial_stats] = scan(0);
  const auto [sched, sched_stats] = scan(2);
  ASSERT_EQ(serial.size(), sched.size());
  EXPECT_EQ(0, std::memcmp(serial.data(), sched.data(),
                           serial.size() * sizeof(Edge)));
  EXPECT_EQ(serial_stats.total_reads(), sched_stats.total_reads());
  EXPECT_EQ(serial_stats.sequential_reads, sched_stats.sequential_reads);
  EXPECT_EQ(serial_stats.bytes_read, sched_stats.bytes_read);
}

TEST(ReadSchedulerTest, OffSequenceSeekFallsBackToDirectReads) {
  auto ctx = MakeContext(1 << 20, 4096, 2);
  const std::string path = ctx->NewTempPath("seek");
  const auto edges = RandomEdges(8'192, 11, 1u << 16);  // 16 blocks exactly
  io::WriteAllRecords(ctx.get(), path, edges);

  io::BlockFile file(ctx.get(), path, io::OpenMode::kRead);
  file.StartSequentialPrefetch();
  std::vector<char> buf(4096);
  // Consume two blocks in sequence, then seek: the stream must leave
  // scheduler service and keep returning correct data directly.
  ASSERT_EQ(file.ReadBlock(0, buf.data()), 4096u);
  ASSERT_EQ(file.ReadBlock(1, buf.data()), 4096u);
  ASSERT_EQ(file.ReadBlock(9, buf.data()), 4096u);
  EXPECT_EQ(0, std::memcmp(buf.data(),
                           reinterpret_cast<const char*>(edges.data()) +
                               9 * 4096,
                           4096));
  ASSERT_EQ(file.ReadBlock(3, buf.data()), 4096u);
  EXPECT_EQ(0, std::memcmp(buf.data(),
                           reinterpret_cast<const char*>(edges.data()) +
                               3 * 4096,
                           4096));
  EXPECT_EQ(file.ReadBlock(16, buf.data()), 0u) << "past EOF stays 0";
}

TEST(ReadSchedulerTest, SortFileSerialVsIoThreadsByteIdentical) {
  // Randomized geometry sweep (mirroring run_pipeline_test's): every
  // draw forces multi-run spills, and each io_threads setting must
  // reproduce the serial engine's output file byte for byte — across
  // device counts and both placement policies.
  util::Rng rng(506);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t block = 512u << rng.Uniform(3);
    const std::uint64_t memory = (6 + rng.Uniform(26)) * block;
    const std::size_t count = 2'000 + rng.Uniform(40'000);
    const bool dedup = rng.Uniform(2) == 1;
    const std::size_t devices = 1 + rng.Uniform(3);
    const auto placement = rng.Uniform(2) == 1
                               ? io::PlacementPolicy::kSpreadGroup
                               : io::PlacementPolicy::kRoundRobin;
    const auto edges = RandomEdges(count, rng.Next(), 1u << 12);

    auto run = [&](std::size_t io_threads) {
      auto ctx = MakeContext(memory, block, io_threads, devices, placement);
      const std::string in = ctx->NewTempPath("in");
      io::WriteAllRecords(ctx.get(), in, edges);
      const std::string out = ctx->NewTempPath("out");
      extsort::SortFile<Edge, graph::EdgeBySrc>(ctx.get(), in, out,
                                                graph::EdgeBySrc(), dedup);
      return io::ReadAllRecords<Edge>(ctx.get(), out);
    };
    const auto serial = run(0);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const auto sched = run(threads);
      ASSERT_EQ(serial.size(), sched.size())
          << "trial " << trial << " io_threads " << threads;
      ASSERT_EQ(0, std::memcmp(serial.data(), sched.data(),
                               serial.size() * sizeof(Edge)))
          << "trial " << trial << " io_threads " << threads;
    }
  }
}

TEST(ReadSchedulerTest, SortIntoSerialVsIoThreadsIdenticalSinkStream) {
  const auto edges = RandomEdges(30'000, 99, 1u << 16);
  auto collect = [&](std::size_t io_threads) {
    auto ctx = MakeContext(24 << 10, 1024, io_threads, 2,
                           io::PlacementPolicy::kSpreadGroup);
    const std::string in = ctx->NewTempPath("in");
    io::WriteAllRecords(ctx.get(), in, edges);
    std::vector<Edge> got;
    auto sink = extsort::MakeCallbackSink<Edge>(
        [&](const Edge& e) { got.push_back(e); });
    extsort::SortInto<Edge>(ctx.get(), in, sink, graph::EdgeBySrc());
    return got;
  };
  const auto serial = collect(0);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const auto sched = collect(threads);
    ASSERT_EQ(serial.size(), sched.size()) << "io_threads " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], sched[i])
          << "io_threads " << threads << " at " << i;
    }
  }
}

TEST(ReadSchedulerTest, PerDeviceStatsSumToAggregateUnderConcurrentReads) {
  // Three devices, spread placement, a budget small enough for several
  // runs and an intermediate merge pass: while device workers fill the
  // rings and execute overlapped output writes, every counted I/O must
  // land in exactly one device's row — the rows sum to the aggregate
  // field by field.
  auto ctx = MakeContext(16 << 10, 1024, 2, 3,
                         io::PlacementPolicy::kSpreadGroup);
  const auto edges = RandomEdges(40'000, 23, 1u << 14);
  const std::string in = ctx->NewTempPath("in");
  io::WriteAllRecords(ctx.get(), in, edges);
  const std::string out = ctx->NewTempPath("out");
  extsort::SortFile<Edge, graph::EdgeBySrc>(ctx.get(), in, out,
                                            graph::EdgeBySrc());
  const io::IoStats total = ctx->stats();
  io::IoStats summed;
  for (const auto& row : ctx->DeviceStats()) summed += row.stats;
  EXPECT_EQ(summed.sequential_reads, total.sequential_reads);
  EXPECT_EQ(summed.random_reads, total.random_reads);
  EXPECT_EQ(summed.sequential_writes, total.sequential_writes);
  EXPECT_EQ(summed.random_writes, total.random_writes);
  EXPECT_EQ(summed.bytes_read, total.bytes_read);
  EXPECT_EQ(summed.bytes_written, total.bytes_written);
  EXPECT_EQ(summed.files_created, total.files_created);
  EXPECT_GE(ctx->max_per_device_ios(), total.total_ios() / 4)
      << "critical path can never be below total / (devices + base)";
}

TEST(ReadSchedulerTest, TightBudgetDegradesWithoutDeadlockOrAbort) {
  // M = 2 blocks: no ring or write slot ever fits, so every stream must
  // silently run direct/synchronous — and still sort correctly.
  auto ctx = MakeContext(2 << 10, 1024, 2);
  auto values = RandomEdges(20'000, 17, 1u << 8);
  const std::string in = ctx->NewTempPath("in");
  io::WriteAllRecords(ctx.get(), in, values);
  const std::string out = ctx->NewTempPath("out");
  extsort::SortFile<Edge, graph::EdgeBySrc>(ctx.get(), in, out,
                                            graph::EdgeBySrc());
  auto result = io::ReadAllRecords<Edge>(ctx.get(), out);
  std::stable_sort(values.begin(), values.end(), graph::EdgeBySrc());
  ASSERT_EQ(result.size(), values.size());
  EXPECT_EQ(0, std::memcmp(result.data(), values.data(),
                           result.size() * sizeof(Edge)));
}

TEST(ReadSchedulerTest, ReaderDestroyedBeforeEofUnregistersCleanly) {
  // A reader abandoned after its first record still has ring slots in
  // flight on the device worker; its destructor must unregister the
  // stream (waiting out the in-flight read) without hanging or touching
  // freed slots, and the context must stay usable.
  auto ctx = MakeContext(1 << 20, 4096, 1);
  const std::string path = ctx->NewTempPath("abandon");
  std::vector<std::uint64_t> values(100'000);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i;
  io::WriteAllRecords(ctx.get(), path, values);
  const std::uint64_t available = ctx->memory().available_bytes();
  {
    io::RecordReader<std::uint64_t> reader(ctx.get(), path);
    std::uint64_t v;
    ASSERT_TRUE(reader.Next(&v));
    EXPECT_EQ(v, 0u);
  }
  EXPECT_EQ(ctx->memory().available_bytes(), available)
      << "the read-ahead ring's reservation must be released";
  EXPECT_EQ(io::ReadAllRecords<std::uint64_t>(ctx.get(), path), values);
}

// Striped oracle: every sorter entry point must reproduce the serial
// engine's output byte for byte when the scratch files stripe their
// blocks across several devices — the scheduler registers each striped
// stream with every member's worker and the members fill the ring out
// of order, but consumption (and therefore output) stays sequential.
TEST(ReadSchedulerTest, StripedSortFileSerialVsIoThreadsByteIdentical) {
  util::Rng rng(815);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t block = 512u << rng.Uniform(3);
    const std::uint64_t memory = (6 + rng.Uniform(26)) * block;
    const std::size_t count = 2'000 + rng.Uniform(30'000);
    const bool dedup = rng.Uniform(2) == 1;
    const std::size_t devices = 2 + rng.Uniform(2);
    const auto edges = RandomEdges(count, rng.Next(), 1u << 12);

    auto run = [&](std::size_t io_threads) {
      auto ctx = MakeContext(memory, block, io_threads, devices,
                             io::PlacementPolicy::kStriped);
      const std::string in = ctx->NewTempPath("in");
      io::WriteAllRecords(ctx.get(), in, edges);
      const std::string out = ctx->NewTempPath("out");
      extsort::SortFile<Edge, graph::EdgeBySrc>(ctx.get(), in, out,
                                                graph::EdgeBySrc(), dedup);
      return io::ReadAllRecords<Edge>(ctx.get(), out);
    };
    const auto serial = run(0);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const auto sched = run(threads);
      ASSERT_EQ(serial.size(), sched.size())
          << "trial " << trial << " io_threads " << threads;
      ASSERT_EQ(0, std::memcmp(serial.data(), sched.data(),
                               serial.size() * sizeof(Edge)))
          << "trial " << trial << " io_threads " << threads;
    }
  }
}

TEST(ReadSchedulerTest, StripedSortIntoSerialVsIoThreadsIdenticalSinkStream) {
  const auto edges = RandomEdges(30'000, 131, 1u << 16);
  auto collect = [&](std::size_t io_threads) {
    auto ctx = MakeContext(24 << 10, 1024, io_threads, 2,
                           io::PlacementPolicy::kStriped);
    const std::string in = ctx->NewTempPath("in");
    io::WriteAllRecords(ctx.get(), in, edges);
    std::vector<Edge> got;
    auto sink = extsort::MakeCallbackSink<Edge>(
        [&](const Edge& e) { got.push_back(e); });
    extsort::SortInto<Edge>(ctx.get(), in, sink, graph::EdgeBySrc());
    return got;
  };
  const auto serial = collect(0);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const auto sched = collect(threads);
    ASSERT_EQ(serial.size(), sched.size()) << "io_threads " << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], sched[i])
          << "io_threads " << threads << " at " << i;
    }
  }
}

TEST(ReadSchedulerTest, StripedScanCriticalPathNearTotalOverD) {
  // A striped sequential scan spreads its blocks ~evenly, so the
  // busiest device ends near total/D — the whole point of the policy.
  // Placement is the subject here, so it is forced AFTER the test-env
  // overrides.
  constexpr std::size_t kDevices = 2;
  io::IoContextOptions options;
  options.block_size = 1024;
  options.memory_bytes = 64 << 10;
  options.device_model.model = io::DeviceModel::kMem;
  for (std::size_t i = 0; i < kDevices; ++i) {
    options.scratch_dirs.push_back("dev" + std::to_string(i));
  }
  testing::ApplyTestEnvOptions(&options);
  options.scratch_placement = io::PlacementPolicy::kStriped;
  options.io_threads = 2;
  auto ctx = std::make_unique<io::IoContext>(options);
  const auto edges = RandomEdges(16'384, 53, 1u << 14);  // 128 KB: 128 blocks
  const std::string path = ctx->NewTempPath("scan");
  io::WriteAllRecords(ctx.get(), path, edges);
  const auto got = io::ReadAllRecords<Edge>(ctx.get(), path);
  ASSERT_EQ(got.size(), edges.size());
  // The env can override the device list; divide by what was built.
  const std::size_t built = ctx->temp_files().devices().size();
  ASSERT_GE(built, 2u);
  const std::uint64_t total = ctx->stats().total_ios();
  EXPECT_LE(ctx->max_per_device_ios(), total / built + 4)
      << "striped critical path must be ~total/D";
}

TEST(ReadSchedulerTest, ExtSccEndToEndStriped) {
  // Whole-system smoke at placement=striped: a multi-level solve whose
  // every scratch file fans its blocks across two devices must still
  // match the oracle partition.
  io::IoContextOptions options;
  options.block_size = 4096;
  options.memory_bytes = 96 << 10;
  options.device_model.model = io::DeviceModel::kMem;
  options.scratch_dirs = {"dev0", "dev1"};
  testing::ApplyTestEnvOptions(&options);
  options.scratch_placement = io::PlacementPolicy::kStriped;
  options.io_threads = 2;
  auto ctx = std::make_unique<io::IoContext>(options);
  gen::SyntheticParams params;
  params.num_nodes = 4'000;
  params.avg_degree = 3.0;
  params.sccs = {{20, 40}};
  params.seed = 12;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  const std::string scc_path = ctx->NewTempPath("scc");
  auto result = core::RunExtScc(ctx.get(), g, scc_path,
                                core::ExtSccOptions::Optimized());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, scc_path,
                                      "ext-scc striped io_threads=2");
}

TEST(ReadSchedulerTest, ExtSccEndToEndWithIoThreads) {
  // Whole-system smoke: a multi-level Ext-SCC solve with the parallel
  // I/O engine must still match the oracle partition. The suite's
  // designated Posix round trip; everything else runs on MemDevice.
  io::IoContextOptions options;
  options.block_size = 4096;
  options.memory_bytes = 96 << 10;
  testing::ApplyTestEnvOptions(&options);
  options.io_threads = 2;
  auto ctx = std::make_unique<io::IoContext>(options);
  gen::SyntheticParams params;
  params.num_nodes = 4'000;
  params.avg_degree = 3.0;
  params.sccs = {{20, 40}};
  params.seed = 12;
  const auto g = gen::GenerateSynthetic(ctx.get(), params);
  const std::string scc_path = ctx->NewTempPath("scc");
  auto result = core::RunExtScc(ctx.get(), g, scc_path,
                                core::ExtSccOptions::Optimized());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  testing::ExpectSccFileMatchesOracle(ctx.get(), g, scc_path,
                                      "ext-scc io_threads=2");
}

}  // namespace
}  // namespace extscc
