// Shared device-parallel I/O engine behind IoContextOptions::io_threads.
//
// A read-ahead thread per file would hide device latency for ONE
// stream, but a k-way merge opens k streams — k threads, and no notion
// of which streams share a spindle: two runs on one device fight each
// other while a second device sits idle. The ReadScheduler inverts the
// ownership: I/O worker threads belong to *devices*, not files. Every sequential reader registers a stream with
// a small ring of block slots (up to IoContextOptions::prefetch_depth,
// budgeted from the MemoryBudget with graceful degrade), and the worker
// that owns the stream's device keeps the rings of all its streams
// topped up, round-robin. A merge group spread across D devices then
// has D workers reading ahead concurrently — the loser tree drains the
// current block of a run on device A while the next block of a run on
// device B is in flight — which is what converts kSpreadGroup placement
// into wall-clock speedup (ROADMAP: "actually *parallel* merge reads").
//
// The same workers execute asynchronous writes: a writer stream owns a
// single pending-write slot (classic double buffering), so the device
// write of output block N overlaps the selection of block N+1, and a
// write to device A never blocks reads on device B.
//
// Striped streams (kStriped placement, StorageFile::stripe_devices):
// a file whose blocks round-robin across D member devices registers
// with EVERY member's queue. Each member worker issues only the blocks
// its device owns (block % D), so all D workers keep one ring full
// concurrently — a single sequential scan reads at D× one device's
// bandwidth — and a striped writer gets up to D pending-write slots
// (one per member, budget permitting), giving the final merge's output
// D-way write bandwidth. Consumption stays strictly sequential; the
// ring window (no block may go in flight before every prior occupant
// of its slot was consumed) keeps slot reuse single-owner even though
// members fill out of order.
//
// Accounting discipline: workers move raw
// bytes but never touch IoStats. Reads are counted by the consumer as it
// takes each block, writes by the submitter as it hands a block over, so
// the Aggarwal-Vitter counters — aggregate and per-device — are the same
// as the serial engine's, in the same per-file order.
//
// Locking discipline: one scheduler mutex guards all queue/slot state,
// and NO device I/O ever runs under it — a worker claims a task, drops
// the lock, performs the read/write (this is where ThrottledDevice
// sleeps its simulated time), and re-locks to publish. Distinct devices
// therefore throttle and transfer independently; serializing them under
// a shared lock would silently reduce the engine to the serial one.
#ifndef EXTSCC_IO_READ_SCHEDULER_H_
#define EXTSCC_IO_READ_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace extscc::io {

class BlockFile;
class MemoryBudget;
class StorageDevice;
class ScheduledStream;

class ReadScheduler {
 public:
  // `max_workers` caps the worker-thread count (= io_threads): devices
  // get dedicated workers until the cap, further devices share by
  // round-robin. `depth` is the per-reader ring size in blocks.
  ReadScheduler(MemoryBudget* memory, std::size_t block_size,
                std::size_t max_workers, std::size_t depth);

  // Joins every worker. All streams must have been unregistered (every
  // BlockFile closed) — the IoContext destroys the scheduler first.
  ~ReadScheduler();

  ReadScheduler(const ReadScheduler&) = delete;
  ReadScheduler& operator=(const ReadScheduler&) = delete;

  // Registers a sequential read stream over `file` (kRead, fixed size)
  // starting at `start_block`. Reserves up to `depth` block slots from
  // the budget, degrading to fewer when the budget is short; returns
  // nullptr when not even one slot fits (the caller reads directly).
  // Must be called on the algorithm thread (MemoryBudget is not
  // thread-safe), like every budget reservation in the engine.
  ScheduledStream* RegisterReader(BlockFile* file, std::uint64_t start_block);

  // Registers an asynchronous writer over `file` with one pending-write
  // slot per stripe member (one total for plain files — classic double
  // buffering), degrading to fewer slots when the budget is short.
  // nullptr when not even one slot fits — the caller keeps writing
  // synchronously.
  ScheduledStream* RegisterWriter(BlockFile* file);

  // Drains in-flight work on `stream` (joins a pending write), removes
  // it and releases its budget. Called by ~BlockFile on the owner
  // thread; `stream` is invalid afterwards.
  void Unregister(ScheduledStream* stream);

  // Consumer side of a reader stream. If `block_index` is the next
  // sequential block, blocks until its slot is filled, copies the
  // payload into `buf` and returns true with the payload size in
  // *bytes (0 = past EOF, uncounted by convention). Returns false when
  // the request leaves the sequential order (the caller seeked): the
  // stream is useless from then on — Unregister and read directly.
  bool TakeBlock(ScheduledStream* stream, std::uint64_t block_index,
                 void* buf, std::size_t* bytes);

  // Producer side of a writer stream: hands one block (<= block_size
  // payload bytes) to the device worker. Blocks while the previous
  // write is still in flight — the single-slot bound is the double
  // buffer, and a slow device backpressures the producer instead of
  // queueing unbounded memory. The caller counts the I/O.
  void SubmitWrite(ScheduledStream* stream, std::uint64_t block_index,
                   const void* data, std::size_t bytes);

  // Observability for tests: worker threads spawned so far.
  std::size_t num_workers() const;

 private:
  struct Worker {
    std::thread thread;
    std::condition_variable cv;          // workers wait for work here
    std::vector<StorageDevice*> devices;  // devices this worker serves
    std::size_t cursor = 0;               // round-robin over devices
  };

  // Per-device view: raw pointers into streams_ (a striped stream
  // appears in every member device's queue; the scheduler owns it
  // exactly once).
  struct DeviceQueue {
    Worker* worker = nullptr;
    std::vector<ScheduledStream*> streams;
    std::size_t cursor = 0;  // round-robin over streams
  };

  // All private helpers run under mu_.
  DeviceQueue* QueueFor(StorageDevice* device);
  ScheduledStream* AdoptStream(std::unique_ptr<ScheduledStream> stream);
  bool ClaimTask(Worker* worker, ScheduledStream** stream,
                 std::size_t* slot_index);
  bool ClaimTaskOnDevice(StorageDevice* device, DeviceQueue* queue,
                         ScheduledStream** stream, std::size_t* slot_index);

  void WorkerLoop(Worker* worker);

  MemoryBudget* const memory_;
  const std::size_t block_size_;
  const std::size_t max_workers_;
  const std::size_t depth_;

  mutable std::mutex mu_;
  bool stop_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<ScheduledStream>> streams_;
  std::unordered_map<StorageDevice*, std::unique_ptr<DeviceQueue>> queues_;
  std::size_t next_shared_worker_ = 0;  // device -> worker round-robin
};

}  // namespace extscc::io

#endif  // EXTSCC_IO_READ_SCHEDULER_H_
