#include "test_util.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "graph/digraph.h"
#include "scc/scc_verify.h"
#include "scc/tarjan.h"
#include "util/csv.h"

namespace extscc::testing {

void ApplyTestEnvOptions(io::IoContextOptions* options) {
  if (const char* env = std::getenv("EXTSCC_TEST_IO_THREADS")) {
    if (env[0] != '\0') {
      options->io_threads =
          static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    }
  }
  if (const char* env = std::getenv("EXTSCC_TEST_DEVICE_MODEL")) {
    if (env[0] != '\0') {
      const std::string error =
          io::ParseDeviceModelSpec(env, &options->device_model);
      if (!error.empty()) {
        ADD_FAILURE() << "EXTSCC_TEST_DEVICE_MODEL: " << error;
      }
    }
  }
  if (const char* env = std::getenv("EXTSCC_TEST_SCRATCH_DIRS")) {
    if (env[0] != '\0') options->scratch_dirs = util::SplitCommaList(env);
  }
  if (const char* env = std::getenv("EXTSCC_TEST_PLACEMENT")) {
    if (env[0] != '\0') {
      const std::string error =
          io::ParsePlacementSpec(env, &options->scratch_placement);
      if (!error.empty()) {
        ADD_FAILURE() << "EXTSCC_TEST_PLACEMENT: " << error;
      }
    }
  }
}

namespace {

std::unique_ptr<io::IoContext> MakeContextWithModel(
    std::uint64_t memory_bytes, std::size_t block_size,
    io::DeviceModel model) {
  io::IoContextOptions options;
  options.block_size = block_size;
  options.memory_bytes = memory_bytes;
  options.device_model.model = model;
  // The environment wins over the suite's requested backing, so the CI
  // matrix (tsan, multidevice, chaos) drives every fixture-built suite.
  ApplyTestEnvOptions(&options);
  return std::make_unique<io::IoContext>(options);
}

}  // namespace

std::unique_ptr<io::IoContext> MakeTestContext(std::uint64_t memory_bytes,
                                               std::size_t block_size) {
  return MakeContextWithModel(memory_bytes, block_size,
                              io::DeviceModel::kPosix);
}

std::unique_ptr<io::IoContext> MakeMemTestContext(std::uint64_t memory_bytes,
                                                  std::size_t block_size) {
  return MakeContextWithModel(memory_bytes, block_size,
                              io::DeviceModel::kMem);
}

scc::SccResult Oracle(const std::vector<graph::Edge>& edges,
                      const std::vector<graph::NodeId>& extra_nodes) {
  graph::Digraph g(extra_nodes, edges);
  return scc::TarjanScc(g);
}

bool OracleReach(const graph::Digraph& g, graph::NodeId from,
                 graph::NodeId to) {
  const std::size_t s = g.index_of(from);
  const std::size_t t = g.index_of(to);
  if (s == g.num_nodes() || t == g.num_nodes()) return from == to;
  return graph::BfsReachable(g, s, t);
}

void ExpectSccFileMatchesOracle(io::IoContext* context,
                                const graph::DiskGraph& g,
                                const std::string& scc_path,
                                const char* label) {
  std::string explanation;
  const bool ok = scc::VerifySccFile(context, g, scc_path, &explanation);
  EXPECT_TRUE(ok) << label << ": " << explanation;
}

}  // namespace extscc::testing
