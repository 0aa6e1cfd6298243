// IoContext bundles the external-memory machine model: block size B,
// memory budget M, the storage devices and scratch-file manager, the I/O
// statistics, and an optional I/O budget used to censor runaway
// algorithms the way the paper censors DFS-SCC at 24 hours ("INF").
#ifndef EXTSCC_IO_IO_CONTEXT_H_
#define EXTSCC_IO_IO_CONTEXT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/io_stats.h"
#include "io/memory_budget.h"
#include "io/read_scheduler.h"
#include "io/storage.h"
#include "io/temp_file_manager.h"

namespace extscc::io {

struct IoContextOptions {
  // Disk block size B in bytes. The paper's testbed uses 256 KB; the
  // scaled default here is 64 KB so block counts stay meaningful on
  // 10^5-10^6-node graphs (see DESIGN.md §3).
  std::size_t block_size = 64 * 1024;

  // Simulated memory size M in bytes. Must satisfy M >= 2 * block_size.
  std::uint64_t memory_bytes = 400 * 1024;

  // 0 = unlimited. When > 0, total_ios() beyond this trips
  // io_budget_exceeded(); long-running algorithms poll it and return
  // ResourceExhausted, which benches print as the paper's INF.
  std::uint64_t io_budget = 0;

  // Read-ahead ring depth of each scheduler stream (io_threads > 0):
  // blocks a sequential reader may hold in flight ahead of its consumer
  // (>= 1; 2 = classic double buffering). Each stream asks the
  // MemoryBudget for up to prefetch_depth * block_size bytes and runs
  // with fewer slots — or none — when the budget cannot cover them.
  std::size_t prefetch_depth = 2;

  // Device-parallel I/O, the only concurrency setting: when > 0 the
  // context owns a ReadScheduler with up to `io_threads` I/O worker
  // threads — one per active storage device until the cap, shared
  // round-robin past it. Every sequential reader then keeps up to
  // `prefetch_depth` blocks in flight on its device's worker, the
  // sorter's merge output double-buffers one async write, and every
  // run-forming sort (FormRuns behind SortFile/SortInto, SortingWriter)
  // hands full buffers to one background worker that sorts and spills
  // them while the producer fills the other buffer of a double-buffered
  // pair (run_pipeline.h). 0 (the default) keeps the serial engine:
  // byte-identical output, identical IoStats and the single-threaded
  // run geometry. With io_threads > 0 the I/O *counts* can shift
  // slightly (ring reservations and halved run buffers change run
  // geometry), but sorted outputs stay byte-identical. Streams and
  // sorts degrade to direct reads / synchronous writes / serial run
  // formation whenever the MemoryBudget cannot cover their buffers.
  std::size_t io_threads = 0;

  // Scratch directory parent ("" = $TMPDIR or /tmp).
  std::string temp_parent_dir;

  // Multi-disk scratch: when non-empty, one scratch StorageDevice is
  // built per listed parent directory (one entry per spindle/NVMe
  // namespace) and new scratch files are assigned across them by
  // `scratch_placement`, so merge passes read runs from independent
  // devices. Overrides temp_parent_dir. (Under device_model kMem the
  // entries only set the device *count*; the backing is RAM.)
  std::vector<std::string> scratch_dirs;

  // What backs the scratch devices: real files (kPosix, the default),
  // RAM (kMem — page-cache-free tests/microbenches), or
  // latency/bandwidth-throttled files (kThrottled — simulated spindles
  // for the parallel-bandwidth model). The model never changes the
  // block accounting, only where the bytes live and how long they take.
  DeviceModelSpec device_model;

  // Device-assignment policy for scratch files. kRoundRobin (default)
  // stripes by global sequence number — byte-identical paths and device
  // choice to the pre-device engine. kSpreadGroup places a merge
  // group's runs on distinct devices by construction. kStriped
  // round-robins every scratch file's BLOCKS across the devices, so a
  // single sequential stream runs at D× one device's bandwidth (see
  // storage.h).
  PlacementPolicy scratch_placement = PlacementPolicy::kRoundRobin;

  // Keep scratch files on destruction (debugging aid).
  bool keep_temp_files = false;

  // ---- fault tolerance (docs/robustness.md) --------------------------

  // Bounded exponential backoff against transient device faults
  // (IsRetryableIoError). io_retry_attempts is the TOTAL number of
  // device attempts per block op (1 = no retry); the k-th retry sleeps
  // min(io_retry_backoff_initial_us << (k-1), io_retry_backoff_max_us).
  // Retries are counted in IoStats::{read,write}_retries but are NOT
  // model I/Os; a fault-free run takes none, so these defaults leave
  // the Aggarwal-Vitter numbers untouched.
  std::size_t io_retry_attempts = 4;
  std::uint64_t io_retry_backoff_initial_us = 200;
  std::uint64_t io_retry_backoff_max_us = 20'000;

  // Append a CRC32 trailer to every scratch block and verify it on
  // read (mismatch = kCorruption, never retried — re-reading flipped
  // bits re-reads flipped bits). Off by default: checksummed scratch
  // files have a different physical stride (block_size + 4), so the
  // default keeps scratch files byte-identical to the fault-oblivious
  // engine. Applies to scratch streams only (kRead/kTruncateWrite);
  // user-facing graph/label files and random-access kReadWrite files
  // stay raw.
  bool checksum_blocks = false;
};

class IoContext {
 public:
  explicit IoContext(const IoContextOptions& options);

  IoContext(const IoContext&) = delete;
  IoContext& operator=(const IoContext&) = delete;

  std::size_t block_size() const { return options_.block_size; }

  std::size_t prefetch_depth() const { return options_.prefetch_depth; }
  std::size_t io_threads() const { return options_.io_threads; }
  std::size_t io_retry_attempts() const { return options_.io_retry_attempts; }
  std::uint64_t io_retry_backoff_initial_us() const {
    return options_.io_retry_backoff_initial_us;
  }
  std::uint64_t io_retry_backoff_max_us() const {
    return options_.io_retry_backoff_max_us;
  }
  bool checksum_blocks() const { return options_.checksum_blocks; }

  // The device-parallel I/O engine, or nullptr when io_threads == 0
  // (the serial engine). BlockFile is the only caller.
  ReadScheduler* read_scheduler() { return read_scheduler_.get(); }

  // The stats object itself; with io_threads > 0 the run-formation
  // spill worker and the producing thread count I/Os concurrently (the
  // scheduler's device workers count nothing), so all mutation (and
  // any read racing a live sort) must hold stats_mutex(). BlockFile is
  // the only mutator; callers snapshotting between phases (no sorter
  // live) may read without the lock, as before.
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }
  std::mutex& stats_mutex() { return stats_mu_; }

  MemoryBudget& memory() { return memory_; }
  TempFileManager& temp_files() { return temp_files_; }

  // The device that owns `path`: the scratch device whose session root
  // contains it, or the context's default PosixDevice for non-scratch
  // (user-supplied) paths. Never nullptr.
  StorageDevice* ResolveDevice(const std::string& path) {
    StorageDevice* device = temp_files_.DeviceForPath(path);
    return device != nullptr ? device : &base_device_;
  }

  // Per-device statistics view: the default device first, then the
  // scratch devices in configuration order. Same locking convention as
  // stats(): snapshot between phases, or hold stats_mutex() when a
  // sorter is live.
  struct DeviceStatsRow {
    std::string name;
    IoStats stats;
  };
  std::vector<DeviceStatsRow> DeviceStats() const;

  // Critical-path metric for the parallel-bandwidth model: with devices
  // operating independently, a phase's lower bound is the busiest
  // device's I/O count, not the aggregate.
  std::uint64_t max_per_device_ios() const;

  // Unique scratch path with a descriptive tag ("ein", "run", ...).
  std::string NewTempPath(const std::string& tag) {
    return temp_files_.NewPath(tag);
  }

  // I/O budget censoring.
  void set_io_budget(std::uint64_t budget) { options_.io_budget = budget; }
  std::uint64_t io_budget() const { return options_.io_budget; }
  bool io_budget_exceeded() const {
    return io_budget_exceeded_.load(std::memory_order_relaxed);
  }
  void reset_io_budget_flag() {
    io_budget_exceeded_.store(false, std::memory_order_relaxed);
  }

  // Called by BlockFile after every counted I/O (under stats_mutex()).
  void OnIo();

  // ---- I/O error latch ------------------------------------------------
  // First-wins record of an unrecovered I/O error anywhere in the
  // context (a failed spill worker, a dead read-ahead slot, a direct
  // read). The long-running algorithms poll has_io_error() at phase
  // boundaries — the same discipline as io_budget_exceeded() — so an
  // error parked by a background thread surfaces as a typed Status on
  // the driver API instead of a crash or a silent wrong answer.

  // Records `status` if the latch is empty (no-op for OK and for an
  // already-latched context).
  void RecordIoError(const util::Status& status);

  // Lock-free poll.
  bool has_io_error() const {
    return has_io_error_.load(std::memory_order_acquire);
  }

  // Copy of the latched error (OK when the latch is empty).
  util::Status io_error() const;

  // Clears the latch iff the latched error's code and message match
  // `recovered` — the failover path's absorb step: after a quarantined
  // device's lost run is re-formed elsewhere, the error that triggered
  // the failover is consumed so the recovered solve doesn't fail on a
  // stale latch. An error recorded by an UNRELATED failure in the
  // meantime stays latched. Returns true when the latch was cleared.
  bool AbsorbIoError(const util::Status& recovered);

  // Test hook: unconditionally clears the latch.
  void reset_io_error();

 private:
  IoContextOptions options_;
  IoStats stats_;
  std::mutex stats_mu_;
  MemoryBudget memory_;
  // Default device for BlockFile paths outside every scratch root —
  // user-facing graph/label files on the real filesystem.
  PosixDevice base_device_{"base"};
  TempFileManager temp_files_;
  // Atomic: set under stats_mutex() by whichever thread trips the
  // budget, polled lock-free by the algorithm's main loop.
  std::atomic<bool> io_budget_exceeded_{false};
  // I/O error latch: the Status under its own mutex (never held across
  // device I/O), the flag mirroring it for lock-free polling.
  mutable std::mutex io_error_mu_;
  util::Status io_error_;
  std::atomic<bool> has_io_error_{false};
  // Declared last: destroyed first, so the I/O workers are joined while
  // every other member (devices, budget) is still alive.
  std::unique_ptr<ReadScheduler> read_scheduler_;
};

}  // namespace extscc::io

#endif  // EXTSCC_IO_IO_CONTEXT_H_
