// Equivalence and degradation tests for the overlapped sort→spill
// pipeline (run_pipeline.h, IoContextOptions::io_threads): every
// sorter entry point must produce byte-identical sorted output with
// io_threads=1 and io_threads=0, spilled runs must never leak, and
// a budget too tight for a second buffer must degrade to the serial
// path rather than abort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/ext_scc.h"
#include "extsort/external_sorter.h"
#include "gen/synthetic_generator.h"
#include "graph/graph_types.h"
#include "io/record_stream.h"
#include "test_util.h"
#include "util/random.h"

namespace extscc {
namespace {

using graph::Edge;
using graph::NodeId;

std::unique_ptr<io::IoContext> MakeContext(
    std::uint64_t memory, std::size_t block, std::size_t io_threads,
    io::DeviceModel model = io::DeviceModel::kMem) {
  io::IoContextOptions options;
  options.block_size = block;
  options.memory_bytes = memory;
  options.device_model.model = model;
  // Env overrides (device model, scratch dirs) reach this suite too —
  // but io_threads is this suite's subject, so the explicit parameter
  // wins over EXTSCC_TEST_IO_THREADS.
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

template <typename T>
void ExpectFilesByteIdentical(io::IoContext* a_ctx, const std::string& a,
                              io::IoContext* b_ctx, const std::string& b,
                              const char* label) {
  const auto va = io::ReadAllRecords<T>(a_ctx, a);
  const auto vb = io::ReadAllRecords<T>(b_ctx, b);
  ASSERT_EQ(va.size(), vb.size()) << label;
  for (std::size_t i = 0; i < va.size(); ++i) {
    ASSERT_EQ(std::memcmp(&va[i], &vb[i], sizeof(T)), 0)
        << label << ": first byte-difference at record " << i;
  }
}

TEST(RunPipelineTest, SortFileSerialVsThreadedByteIdentical) {
  // Randomized geometry sweep; every draw forces multi-run spills in at
  // least the serial engine.
  util::Rng rng(404);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t block = 512u << rng.Uniform(3);
    const std::uint64_t memory = (4 + rng.Uniform(28)) * block;
    const std::size_t count = 2'000 + rng.Uniform(40'000);
    const bool dedup = rng.Uniform(2) == 1;
    const auto edges = RandomEdges(count, rng.Next(), 1u << 12);

    auto serial_ctx = MakeContext(memory, block, 0);
    auto threaded_ctx = MakeContext(memory, block, 1);
    const std::string in_s = serial_ctx->NewTempPath("in");
    const std::string in_t = threaded_ctx->NewTempPath("in");
    io::WriteAllRecords(serial_ctx.get(), in_s, edges);
    io::WriteAllRecords(threaded_ctx.get(), in_t, edges);
    const std::string out_s = serial_ctx->NewTempPath("out");
    const std::string out_t = threaded_ctx->NewTempPath("out");
    const auto info_s = extsort::SortFile<Edge, graph::EdgeBySrc>(
        serial_ctx.get(), in_s, out_s, graph::EdgeBySrc(), dedup);
    const auto info_t = extsort::SortFile<Edge, graph::EdgeBySrc>(
        threaded_ctx.get(), in_t, out_t, graph::EdgeBySrc(), dedup);
    EXPECT_EQ(info_s.num_records, info_t.num_records);
    ExpectFilesByteIdentical<Edge>(serial_ctx.get(), out_s,
                                   threaded_ctx.get(), out_t,
                                   "SortFile serial vs threaded");
  }
}

TEST(RunPipelineTest, SortingWriterSerialVsThreadedByteIdentical) {
  util::Rng rng(405);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t block = 1024;
    const std::uint64_t memory = (4 + rng.Uniform(28)) * block;
    const std::size_t count = 2'000 + rng.Uniform(30'000);
    const bool dedup = rng.Uniform(2) == 1;
    const auto edges = RandomEdges(count, rng.Next(), 1u << 10);

    auto run = [&](std::size_t threads) {
      auto ctx = MakeContext(memory, block, threads);
      extsort::SortingWriter<Edge, graph::EdgeByDst> writer(
          ctx.get(), graph::EdgeByDst(), dedup);
      for (const auto& e : edges) writer.Add(e);
      const std::string out = ctx->NewTempPath("out");
      writer.FinishInto(out);
      return io::ReadAllRecords<Edge>(ctx.get(), out);
    };
    const auto serial = run(0);
    const auto threaded = run(1);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(std::memcmp(&serial[i], &threaded[i], sizeof(Edge)), 0)
          << "SortingWriter divergence at record " << i << " (trial "
          << trial << ")";
    }
  }
}

TEST(RunPipelineTest, SortIntoThreadedMatchesSerialSink) {
  const auto edges = RandomEdges(25'000, 99, 1u << 16);
  auto collect = [&](std::size_t threads) {
    auto ctx = MakeContext(24 << 10, 1024, threads);
    const std::string in = ctx->NewTempPath("in");
    io::WriteAllRecords(ctx.get(), in, edges);
    std::vector<Edge> got;
    auto sink = extsort::MakeCallbackSink<Edge>(
        [&](const Edge& e) { got.push_back(e); });
    extsort::SortInto<Edge>(ctx.get(), in, sink, graph::EdgeBySrc());
    return got;
  };
  const auto serial = collect(0);
  const auto threaded = collect(1);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], threaded[i]) << "at " << i;
  }
}

TEST(RunPipelineTest, TightBudgetDegradesToSerialAndStaysCorrect) {
  // M = 2 blocks: after the add buffer's reservation nothing is left
  // for a second buffer, so the writer must fall back to serial spills
  // (same geometry) instead of aborting the Reserve.
  auto ctx = MakeContext(2 << 10, 1024, 1);
  auto values = RandomEdges(20'000, 17, 1u << 8);
  extsort::SortingWriter<Edge, graph::EdgeBySrc> writer(ctx.get(),
                                                        graph::EdgeBySrc());
  for (const auto& e : values) writer.Add(e);
  const std::string out = ctx->NewTempPath("out");
  writer.FinishInto(out);
  auto result = io::ReadAllRecords<Edge>(ctx.get(), out);
  std::stable_sort(values.begin(), values.end(), graph::EdgeBySrc());
  ASSERT_EQ(result.size(), values.size());
  for (std::size_t i = 0; i < result.size(); ++i) {
    ASSERT_EQ(result[i], values[i]) << "at " << i;
  }
}

TEST(RunPipelineTest, AbandonedWriterLeaksNoRuns) {
  namespace fs = std::filesystem;
  // Posix scratch: the leak check walks the session directories.
  auto ctx = MakeContext(8 << 10, 1024, 1, io::DeviceModel::kPosix);
  {
    extsort::SortingWriter<Edge, graph::EdgeBySrc> writer(
        ctx.get(), graph::EdgeBySrc());
    for (const auto& e : RandomEdges(20'000, 23, 1u << 8)) writer.Add(e);
    // Destroyed without FinishInto: spilled runs must be removed.
  }
  std::size_t files = 0;
  for (const auto& dir : ctx->temp_files().dirs()) {
    if (!fs::exists(dir)) continue;  // env override to a RAM device
    for (auto it = fs::directory_iterator(dir);
         it != fs::directory_iterator(); ++it) {
      // The owner-liveness marker (storage.h, ReapOrphanScratchRoots)
      // lives in every posix session root by design; it is not scratch.
      if (it->path().filename() == ".pid") continue;
      ++files;
    }
  }
  EXPECT_EQ(files, 0u) << "abandoned writer stranded scratch files";
}

TEST(RunPipelineTest, ThreadedIoCountsMatchSerialForSortingWriter) {
  // Equal-capacity double buffering preserves run geometry, so a
  // SortingWriter spills the same records to the same number of runs —
  // total block I/O must agree with the serial engine exactly.
  const auto edges = RandomEdges(30'000, 31, 1u << 10);
  auto io_count = [&](std::size_t threads) {
    auto ctx = MakeContext(16 << 10, 1024, threads);
    // Snapshot before the writer exists: while a threaded writer is
    // live its spill worker mutates the stats concurrently, so the
    // only race-free read points are outside the writer's lifetime.
    const auto before = ctx->stats();
    const std::string out = ctx->NewTempPath("out");
    {
      extsort::SortingWriter<Edge, graph::EdgeBySrc> writer(
          ctx.get(), graph::EdgeBySrc());
      for (const auto& e : edges) writer.Add(e);
      writer.FinishInto(out);
    }
    return (ctx->stats() - before).total_ios();
  };
  EXPECT_EQ(io_count(0), io_count(1));
}

TEST(RunPipelineTest, ExtSccEndToEndWithIoThreads) {
  // Whole-system smoke: a multi-level Ext-SCC solve with overlapped run
  // formation must still match the oracle partition. The suite's
  // designated Posix round trip: the rest runs on MemDevice scratch.
  auto ctx = MakeContext(96 << 10, 4096, 1, io::DeviceModel::kPosix);
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
                                      "ext-scc io_threads=1");
}

}  // namespace
}  // namespace extscc
