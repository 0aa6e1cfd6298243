// The kill-loop crash-consistency harness: spawns the real extscc_tool
// binary and kills it at every seeded durability point (--crash-at),
// plus wall-clock SIGKILLs, then requires recovery to a valid state
// with byte-identical answers:
//
//   solve    crash at point k, `--resume` from the checkpoint -> the
//            label file is byte-identical to an uncrashed solve's
//   build    crash mid-publish -> the artifact path holds either
//            nothing or a fully valid artifact; a re-run converges
//   update   crash anywhere -> fsck repairs the leftovers and a re-run
//            of the same batch answers queries identically
//
// The final test enforces the acceptance floor: at least 50 injected
// crash runs across the suite (topped up from a SplitMix64 stream so
// any shortfall is made deterministic, not flaky).
//
// CMake only defines EXTSCC_TOOL_PATH when the extscc_tool target is
// built alongside the tests; without it the suite skips.
#include <gtest/gtest.h>

#ifndef EXTSCC_TOOL_PATH

TEST(CrashTest, ToolUnavailable) {
  GTEST_SKIP() << "extscc_tool not built; crash harness skipped";
}

#else  // EXTSCC_TOOL_PATH

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/crash_point.h"

namespace extscc {
namespace {

namespace fs = std::filesystem;

// Seeded crash runs observed so far (exit 86 or SIGKILL footprints).
// The acceptance criterion for the whole harness is >= 50.
int g_crash_runs = 0;

// Sweeps are bounded so a regression that stops the tool from ever
// exiting cleanly fails fast instead of spinning.
constexpr int kMaxSweep = 200;

class CrashHarness : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    dir_ = new fs::path(fs::path(::testing::TempDir()) / "extscc_crash");
    fs::remove_all(*dir_);
    fs::create_directories(*dir_);
    // 12K nodes vs a 128 KiB budget (16 bytes/node semi contract):
    // the solve MUST contract at least one level, so the checkpoint
    // sweep covers level saves, the semi save, and expansion saves.
    ASSERT_EQ(Tool("generate web 12000 " + Path("g.txt") + " 3"), 0);
    ASSERT_EQ(Tool("solve " + Path("g.txt") + " " + Path("ref_labels.txt") +
                   " " + std::to_string(kMemory)),
              0);

    // A probe batch the artifact tests replay; answers go to stdout
    // (stats go to stderr), so clean runs are byte-comparable.
    std::ofstream probes(Path("probes.txt"));
    for (int u = 0; u < 24; ++u) probes << "stat " << u * 499 << "\n";
    for (int u = 0; u < 16; ++u) {
      probes << "same " << u * 701 << " " << u * 701 + 13 << "\n";
      probes << "reach " << u * 701 << " " << (u + 1) * 701 << "\n";
    }
    probes << "\n";
    probes.close();

    // An update batch over existing node ids (text edge list).
    std::ofstream upd(Path("upd.txt"));
    for (int i = 0; i < 500; ++i) {
      upd << (i * 37) % 12000 << " " << (i * 53 + 11) % 12000 << "\n";
    }
    upd.close();
  }

  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }

  static std::string Path(const std::string& name) {
    return (*dir_ / name).string();
  }

  // Runs the tool; returns its exit code, or -signal when killed.
  // stdout+stderr append to harness.log for post-mortems.
  static int Tool(const std::string& args) {
    const std::string cmd = std::string(EXTSCC_TOOL_PATH) + " " + args +
                            " >>" + Path("harness.log") + " 2>&1";
    const int rc = std::system(cmd.c_str());
    if (WIFEXITED(rc)) return WEXITSTATUS(rc);
    if (WIFSIGNALED(rc)) return -WTERMSIG(rc);
    return -999;
  }

  // Like Tool but stdout goes to `stdout_path` (query answers).
  static int ToolCapture(const std::string& args,
                         const std::string& stdout_path) {
    const std::string cmd = std::string(EXTSCC_TOOL_PATH) + " " + args +
                            " >" + stdout_path + " 2>>" +
                            Path("harness.log");
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  static void ExpectSameBytes(const std::string& got,
                              const std::string& want, const char* what) {
    const std::string a = Slurp(got);
    const std::string b = Slurp(want);
    ASSERT_FALSE(b.empty()) << what << ": reference " << want << " is empty";
    EXPECT_EQ(a, b) << what << ": " << got << " diverged from " << want
                    << " (see " << Path("harness.log") << ")";
  }

  // Two 64 KiB blocks — the tool's floor — and small enough that 12K
  // nodes exceed the semi contract, forcing contraction levels.
  static constexpr std::uint64_t kMemory = 131072;
  static fs::path* dir_;
};

fs::path* CrashHarness::dir_ = nullptr;

// One crash+resume cycle at ordinal `k` against a fresh checkpoint
// directory. `global_flags` (device model, placement, scratch dirs)
// apply to BOTH the crashing run and the resume. Returns false when
// ordinal `k` was past the last durability point (the run finished
// cleanly).
bool CrashResumeCycleAt(int k, const std::string& tag_prefix = "",
                        const std::string& global_flags = "") {
  const std::string ck = CrashHarness::Path("ck");
  const std::string out = CrashHarness::Path("labels_crash.txt");
  fs::remove_all(ck);
  fs::remove(out);
  const std::string spec =
      tag_prefix.empty() ? std::to_string(k)
                         : tag_prefix + ":" + std::to_string(k);
  const int rc = CrashHarness::Tool(
      global_flags + "--crash-at=" + spec + " solve --checkpoint-dir=" + ck +
      " " + CrashHarness::Path("g.txt") + " " + out + " " +
      std::to_string(CrashHarness::kMemory));
  if (rc == 0) {
    // Clean run: the sweep walked past the last durability point.
    // Still a correctness check for free.
    CrashHarness::ExpectSameBytes(out, CrashHarness::Path("ref_labels.txt"),
                                  "post-sweep clean solve");
    return false;
  }
  EXPECT_EQ(rc, io::kCrashExitCode) << "crash-at=" << spec;
  ++g_crash_runs;
  const int resumed = CrashHarness::Tool(
      global_flags + "solve --checkpoint-dir=" + ck + " --resume " +
      CrashHarness::Path("g.txt") + " " + out + " " +
      std::to_string(CrashHarness::kMemory));
  EXPECT_EQ(resumed, 0) << "resume after crash-at=" << spec;
  CrashHarness::ExpectSameBytes(out, CrashHarness::Path("ref_labels.txt"),
                                ("resume after crash-at=" + spec).c_str());
  // Success empties the checkpoint directory.
  EXPECT_FALSE(fs::exists(ck + "/MANIFEST")) << "crash-at=" << spec;
  return true;
}

TEST_F(CrashHarness, SolveCrashSweepResumesByteIdentical) {
  // Kill the solve at EVERY durability point in order; each resume must
  // reproduce the uncrashed labels byte for byte.
  int k = 1;
  for (; k <= kMaxSweep; ++k) {
    if (!CrashResumeCycleAt(k)) break;
    if (HasFatalFailure()) return;
  }
  ASSERT_LE(k, kMaxSweep) << "solve never ran past its durability points";
  // The sweep must have actually exercised checkpointing: at least one
  // level save + the semi save land well above this floor.
  EXPECT_GE(k, 10) << "suspiciously few durability points in a "
                      "checkpointed multi-level solve";
}

TEST_F(CrashHarness, SolveCrashWithoutResumeStartsFresh) {
  // A crashed checkpointed solve re-run WITHOUT --resume must ignore
  // the leftovers and still converge.
  const std::string ck = Path("ck_fresh");
  const std::string out = Path("labels_fresh.txt");
  fs::remove_all(ck);
  const int rc = Tool("--crash-at=ckpt:3 solve --checkpoint-dir=" + ck +
                      " " + Path("g.txt") + " " + out + " " +
                      std::to_string(kMemory));
  ASSERT_EQ(rc, io::kCrashExitCode);
  ++g_crash_runs;
  ASSERT_EQ(Tool("solve --checkpoint-dir=" + ck + " " + Path("g.txt") + " " +
                 out + " " + std::to_string(kMemory)),
            0);
  ExpectSameBytes(out, Path("ref_labels.txt"), "fresh restart after crash");
}

TEST_F(CrashHarness, BuildIndexCrashSweepPublishIsAtomic) {
  const std::string ref_art = Path("ref.art");
  const std::string ref_ans = Path("ref_answers.txt");
  ASSERT_EQ(Tool("build-index " + Path("g.txt") + " " + ref_art), 0);
  ASSERT_EQ(ToolCapture("query " + ref_art + " " + Path("probes.txt"),
                        ref_ans),
            0);

  const std::string art = Path("crash.art");
  int k = 1;
  for (; k <= kMaxSweep; ++k) {
    fs::remove(art);
    fs::remove(art + ".tmp");
    const int rc = Tool("--crash-at=" + std::to_string(k) + " build-index " +
                        Path("g.txt") + " " + art);
    if (rc == 0) break;
    ASSERT_EQ(rc, io::kCrashExitCode) << "crash-at=" << k;
    ++g_crash_runs;
    // The publish is atomic: after a crash the artifact either does
    // not exist yet or is complete — a query against an existing file
    // must succeed with the reference answers, never see a torn file.
    if (fs::exists(art)) {
      const std::string ans = Path("crash_answers.txt");
      ASSERT_EQ(ToolCapture("query " + art + " " + Path("probes.txt"), ans),
                0)
          << "torn artifact visible after crash-at=" << k;
      ExpectSameBytes(ans, ref_ans, "artifact published before crash");
    }
    // fsck sweeps the leftovers (notably <art>.tmp); on a non-existent
    // artifact it reports not-found, which is fine mid-sweep.
    const int fsck = Tool("fsck " + art);
    ASSERT_TRUE(fsck == 0 || fsck == 10 || fsck == 4)
        << "fsck exit " << fsck << " after crash-at=" << k;
    EXPECT_FALSE(fs::exists(art + ".tmp"))
        << "fsck left the orphaned publish, crash-at=" << k;
    // Convergence: the same build, uncrashed, from whatever is left.
    ASSERT_EQ(Tool("build-index " + Path("g.txt") + " " + art), 0);
    const std::string ans = Path("crash_answers.txt");
    ASSERT_EQ(ToolCapture("query " + art + " " + Path("probes.txt"), ans), 0);
    ExpectSameBytes(ans, ref_ans, "rebuild after crash");
  }
  ASSERT_LE(k, kMaxSweep) << "build-index never ran past its crash points";
}

TEST_F(CrashHarness, UpdateCrashSweepRecoversWithFsck) {
  const std::string pristine = Path("pristine.art");
  ASSERT_EQ(Tool("build-index " + Path("g.txt") + " " + pristine), 0);

  // Reference: pristine + the batch, applied without interference.
  const std::string ref_art = Path("ref_upd.art");
  fs::copy_file(pristine, ref_art, fs::copy_options::overwrite_existing);
  ASSERT_EQ(Tool("update --index=" + ref_art + " --edges=" + Path("upd.txt")),
            0);
  const std::string ref_ans = Path("ref_upd_answers.txt");
  ASSERT_EQ(ToolCapture("query " + ref_art + " " + Path("probes.txt"),
                        ref_ans),
            0);

  const std::string art = Path("upd_crash.art");
  int k = 1;
  for (; k <= kMaxSweep; ++k) {
    fs::copy_file(pristine, art, fs::copy_options::overwrite_existing);
    fs::remove(art + ".dlog");
    fs::remove(art + ".dlog.tmp");
    fs::remove(art + ".tmp");
    const int rc = Tool("--crash-at=" + std::to_string(k) + " update" +
                        " --index=" + art + " --edges=" + Path("upd.txt"));
    if (rc == 0) break;
    ASSERT_EQ(rc, io::kCrashExitCode) << "crash-at=" << k;
    ++g_crash_runs;
    // fsck removes orphaned publishes / truncates torn delta tails.
    const int fsck = Tool("fsck " + art);
    ASSERT_TRUE(fsck == 0 || fsck == 10)
        << "fsck exit " << fsck << " after update crash-at=" << k;
    ASSERT_EQ(Tool("fsck " + art), 0)
        << "fsck did not converge after crash-at=" << k;
    // Re-applying the SAME batch is idempotent on the SCC partition:
    // answers must match the uncrashed reference.
    ASSERT_EQ(Tool("update --index=" + art + " --edges=" + Path("upd.txt")),
              0)
        << "re-update after crash-at=" << k;
    const std::string ans = Path("upd_crash_answers.txt");
    ASSERT_EQ(ToolCapture("query " + art + " " + Path("probes.txt"), ans), 0);
    ExpectSameBytes(ans, ref_ans, "update recovery");
  }
  ASSERT_LE(k, kMaxSweep) << "update never ran past its crash points";
  EXPECT_GE(k, 3) << "update exposed suspiciously few durability points";
}

TEST_F(CrashHarness, CrashMatrixFaultyDeviceStripedPlacement) {
  // The matrix point the single-axis sweeps miss: a crash landing
  // while the scratch devices are ALSO injecting transient faults and
  // every scratch file stripes across two simulated disks. Labels must
  // still come back byte-identical — crash recovery, retry/failover,
  // and striped placement compose.
  const std::string a = Path("stripe_a");
  const std::string b = Path("stripe_b");
  fs::create_directories(a);
  fs::create_directories(b);
  const std::string flags =
      "--device-model=faulty:seed=11,rate=0.002 --placement=striped "
      "--scratch-dirs=" + a + "," + b + " ";
  // A clean run under the matrix first: transient faults + striping
  // must not change the labels even without a crash.
  const std::string out = Path("labels_matrix.txt");
  ASSERT_EQ(Tool(flags + "solve " + Path("g.txt") + " " + out + " " +
                 std::to_string(kMemory)),
            0);
  ExpectSameBytes(out, Path("ref_labels.txt"), "faulty+striped clean solve");
  for (const int k : {2, 7, 13, 21}) {
    CrashResumeCycleAt(k, "", flags);
    if (HasFatalFailure()) return;
  }
}

TEST_F(CrashHarness, WallClockSigkillDuringSolveThenResume) {
  // Crash points only cover durability-relevant instants; a wall-clock
  // SIGKILL can land anywhere (mid-sort, mid-write, mid-anything).
  const std::string ck = Path("ck_kill");
  const std::string out = Path("labels_kill.txt");
  const std::string log = Path("harness.log");
  for (const int delay_ms : {25, 60, 120, 220, 400}) {
    fs::remove_all(ck);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      const std::string mem = std::to_string(kMemory);
      const std::string ckflag = "--checkpoint-dir=" + ck;
      ::execl(EXTSCC_TOOL_PATH, EXTSCC_TOOL_PATH, "solve", ckflag.c_str(),
              Path("g.txt").c_str(), out.c_str(), mem.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    ::usleep(static_cast<useconds_t>(delay_ms) * 1000);
    ::kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    if (WIFSIGNALED(wstatus)) ++g_crash_runs;
    // Whether the kill landed or the solve won the race, a resume (or
    // first run) against the directory must converge byte-identically.
    ASSERT_EQ(Tool("solve --checkpoint-dir=" + ck + " --resume " +
                   Path("g.txt") + " " + out + " " + std::to_string(kMemory)),
              0)
        << "resume after SIGKILL at ~" << delay_ms << "ms";
    ExpectSameBytes(out, Path("ref_labels.txt"), "resume after SIGKILL");
  }
}

TEST_F(CrashHarness, MalformedArgumentsAreUsageErrors) {
  // Every numeric flag and argument is parsed whole and solve's mode
  // word is exact, so none of these may run with a substituted setting:
  // each exits 2 before any work and no label file appears.
  const std::string g = Path("g.txt");
  const std::string out = Path("usage_labels.txt");
  const std::string bad_args[] = {
      "--io-threads=abc solve " + g + " " + out + " 4194304",
      "--io-threads=-1 solve " + g + " " + out + " 4194304",
      "solve " + g + " " + out + " 4194304 basik",
      "solve " + g + " " + out + " 4194304xyz",
      "solve " + g + " " + out + " 99999999999999999999",
      "condense " + g + " " + out + " 4m",
      "build-index --labels=x " + g + " " + out,
      "generate web 2x00 " + out,
      "generate web 2000 " + out + " 7s",
  };
  for (const std::string& args : bad_args) {
    EXPECT_EQ(Tool(args), 2) << args;
    EXPECT_FALSE(fs::exists(out)) << args;
  }
}

TEST_F(CrashHarness, AtLeastFiftySeededCrashRuns) {
  // Top up to the acceptance floor from a SplitMix64 stream, so the
  // floor never depends on exactly how many durability points the
  // earlier sweeps happened to find. Every drawn ordinal is replayable
  // as a single --crash-at=N.
  std::uint64_t state = 0x243f6a8885a308d3ull;  // pi, arbitrary fixed seed
  auto next = [&state]() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int attempt = 0; g_crash_runs < 50 && attempt < 150; ++attempt) {
    const int k = static_cast<int>(next() % 40) + 1;
    CrashResumeCycleAt(k);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(g_crash_runs, 50)
      << "the harness must exercise at least 50 injected crash runs";
}

}  // namespace
}  // namespace extscc

#endif  // EXTSCC_TOOL_PATH
