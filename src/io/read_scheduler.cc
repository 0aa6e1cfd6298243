#include "io/read_scheduler.h"

#include <algorithm>
#include <cstring>

#include "io/block_file.h"
#include "io/memory_budget.h"
#include "util/logging.h"

namespace extscc::io {

// One ring slot of a stream. State transitions:
//   reader: kEmpty -(worker claims)-> kInFlight -(read done)-> kFilled
//           -(consumer takes)-> kEmpty
//   writer: kEmpty -(producer fills)-> kPending -(worker claims)->
//           kInFlight -(write done)-> kEmpty
// Only the indicated party performs each transition, so a slot's buffer
// is always owned by exactly one thread outside the scheduler mutex:
// kInFlight buffers belong to the worker, kFilled to the consumer,
// kEmpty/kPending(-being-filled) to the producer. Copies in and out of
// the buffer therefore run UNLOCKED; the mutex only orders the state
// flips.
struct StreamSlot {
  enum class State { kEmpty, kPending, kInFlight, kFilled };
  State state = State::kEmpty;
  std::uint64_t block = 0;
  std::size_t bytes = 0;
  // A failed read-ahead parks its error here (bytes = 0) and the slot
  // still becomes kFilled: the consumer — not the worker thread — is
  // who surfaces it, on its next TakeBlock. Workers never abort.
  util::Status status;
  std::vector<char> data;
};

class ScheduledStream {
 public:
  BlockFile* file = nullptr;
  // The devices serving this stream: the file's stripe members in
  // stripe order (block b belongs to devices[b % width]), or exactly
  // one entry for a plain single-device file. Every listed device's
  // queue holds a pointer to this stream.
  std::vector<StorageDevice*> devices;
  bool writer = false;
  bool dying = false;
  std::uint64_t reserved_bytes = 0;
  std::vector<StreamSlot> slots;

  // First async-write failure (writer streams; guarded by the scheduler
  // mutex). Surfaced on the producer thread at the next SubmitWrite and
  // at Unregister — a failed device write must reach the BlockFile's
  // sticky status before the file closes.
  util::Status write_status;

  // Reader sequence state. Blocks are CONSUMED strictly in order;
  // block b lives in slot (b % slots.size()). Each member device
  // issues only its own blocks (b % width == member index), stepping
  // its next_issue cursor by width, so members read ahead
  // independently — the window guard in Claim keeps slot reuse sound.
  std::uint64_t end_block = 0;      // first block past EOF
  std::vector<std::uint64_t> next_issue;  // per devices[] entry
  std::uint64_t consume_block = 0;  // next block the consumer may take

  // The consumer (reader) or producer (writer) waits here.
  std::condition_variable cv;

  std::size_t DeviceIndex(const StorageDevice* device) const {
    for (std::size_t i = 0; i < devices.size(); ++i) {
      if (devices[i] == device) return i;
    }
    LOG_FATAL << "ReadScheduler: stream claimed by a device it is not "
                 "registered with";
    return 0;
  }

  // Claims one unit of work that `device` can perform on this stream,
  // flipping the chosen slot to kInFlight. Runs under the scheduler
  // mutex.
  bool Claim(StorageDevice* device, std::size_t* slot_index) {
    const std::size_t width = devices.size();
    const std::size_t di = DeviceIndex(device);
    if (writer) {
      // A pending write must drain even on a dying stream — Unregister
      // waits for exactly that before the file handle closes — but only
      // the member owning the block may execute it.
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].state == StreamSlot::State::kPending &&
            slots[s].block % width == di) {
          slots[s].state = StreamSlot::State::kInFlight;
          *slot_index = s;
          return true;
        }
      }
      return false;
    }
    if (dying) return false;  // new read-ahead would go nowhere
    const std::uint64_t block = next_issue[di];
    if (block >= end_block) return false;
    // Ring window: block b may go in flight only once every earlier
    // occupant of its slot (b - slots.size() and older) was consumed.
    // Members fill out of order, but all blocks below consume_block are
    // already consumed, so the member owning consume_block is never
    // window-blocked — no deadlock.
    if (block >= consume_block + slots.size()) return false;
    StreamSlot& slot = slots[block % slots.size()];
    if (slot.state != StreamSlot::State::kEmpty) return false;
    slot.state = StreamSlot::State::kInFlight;
    slot.block = block;
    next_issue[di] += width;
    *slot_index = static_cast<std::size_t>(block % slots.size());
    return true;
  }

  bool Idle() const {
    for (const StreamSlot& slot : slots) {
      if (slot.state == StreamSlot::State::kInFlight) return false;
      if (writer && slot.state == StreamSlot::State::kPending) return false;
    }
    return true;
  }
};

ReadScheduler::ReadScheduler(MemoryBudget* memory, std::size_t block_size,
                             std::size_t max_workers, std::size_t depth)
    : memory_(memory),
      block_size_(block_size),
      max_workers_(std::max<std::size_t>(1, max_workers)),
      depth_(std::max<std::size_t>(1, depth)) {}

ReadScheduler::~ReadScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    DCHECK(streams_.empty())
        << "ReadScheduler destroyed with live streams (a BlockFile "
           "outlived its IoContext)";
    for (auto& worker : workers_) worker->cv.notify_all();
  }
  for (auto& worker : workers_) worker->thread.join();
}

ReadScheduler::DeviceQueue* ReadScheduler::QueueFor(StorageDevice* device) {
  auto it = queues_.find(device);
  if (it != queues_.end()) return it->second.get();
  auto queue = std::make_unique<DeviceQueue>();
  if (workers_.size() < max_workers_) {
    // Dedicated worker for a new device, up to the thread cap.
    auto worker = std::make_unique<Worker>();
    worker->devices.push_back(device);
    queue->worker = worker.get();
    Worker* raw = worker.get();
    workers_.push_back(std::move(worker));
    raw->thread = std::thread([this, raw] { WorkerLoop(raw); });
  } else {
    // Past the cap devices share workers round-robin; reads on shared
    // devices still overlap the consumer, just not each other.
    Worker* worker = workers_[next_shared_worker_++ % workers_.size()].get();
    worker->devices.push_back(device);
    queue->worker = worker;
  }
  DeviceQueue* raw = queue.get();
  queues_.emplace(device, std::move(queue));
  return raw;
}

ScheduledStream* ReadScheduler::AdoptStream(
    std::unique_ptr<ScheduledStream> stream) {
  std::lock_guard<std::mutex> lock(mu_);
  ScheduledStream* raw = stream.get();
  streams_.push_back(std::move(stream));
  // Register with EVERY member device's queue (one queue for plain
  // files): a striped stream is kept full by all its members' workers
  // concurrently.
  for (StorageDevice* device : raw->devices) {
    DeviceQueue* queue = QueueFor(device);
    queue->streams.push_back(raw);
    queue->worker->cv.notify_all();
  }
  return raw;
}

ScheduledStream* ReadScheduler::RegisterReader(BlockFile* file,
                                               std::uint64_t start_block) {
  // Degrade gracefully: take as many ring slots as the budget still
  // covers (never more than depth_, never more than the stream has
  // blocks left to read — a 1-block run must not hold a dead second
  // slot that starves later registrations), and fall back to direct
  // reads when not even one block fits.
  const std::uint64_t blocks_left = file->num_blocks() - start_block;
  const std::uint64_t want =
      std::min<std::uint64_t>(depth_, blocks_left) * block_size_;
  // Atomic claim: reserve first, then size the ring from what was
  // granted (a fractional-block remainder goes straight back).
  const std::uint64_t granted = memory_->ReserveUpTo(want);
  const std::size_t affordable =
      static_cast<std::size_t>(granted / block_size_);
  const std::uint64_t kept =
      static_cast<std::uint64_t>(affordable) * block_size_;
  if (granted > kept) memory_->Release(granted - kept);
  if (affordable == 0) return nullptr;
  auto stream = std::make_unique<ScheduledStream>();
  stream->file = file;
  const std::vector<StorageDevice*>* stripe = file->StripeDevices();
  if (stripe != nullptr) {
    stream->devices = *stripe;
  } else {
    stream->devices.push_back(file->device());
  }
  stream->reserved_bytes = kept;
  stream->slots.resize(affordable);
  for (StreamSlot& slot : stream->slots) slot.data.resize(block_size_);
  stream->end_block = file->num_blocks();
  // Each member starts at its first owned block at or after
  // start_block and steps by the stripe width.
  const std::uint64_t width = stream->devices.size();
  stream->next_issue.resize(width);
  for (std::uint64_t di = 0; di < width; ++di) {
    stream->next_issue[di] =
        start_block + (di + width - start_block % width) % width;
  }
  stream->consume_block = start_block;
  return AdoptStream(std::move(stream));
}

ScheduledStream* ReadScheduler::RegisterWriter(BlockFile* file) {
  // One pending-write slot per stripe member (one for plain files):
  // block b parks in slot b % nslots and only member b % width executes
  // it, so a striped output stream drives all members concurrently.
  // Degrade to fewer slots when the budget is short — nslots < width
  // just means fewer writes in flight, never a wrong route.
  const std::vector<StorageDevice*>* stripe = file->StripeDevices();
  const std::size_t width = stripe != nullptr ? stripe->size() : 1;
  const std::uint64_t want =
      static_cast<std::uint64_t>(width) * block_size_;
  const std::uint64_t granted = memory_->ReserveUpTo(want);
  const std::size_t affordable =
      static_cast<std::size_t>(granted / block_size_);
  const std::uint64_t kept =
      static_cast<std::uint64_t>(affordable) * block_size_;
  if (granted > kept) memory_->Release(granted - kept);
  if (affordable == 0) return nullptr;
  auto stream = std::make_unique<ScheduledStream>();
  stream->file = file;
  if (stripe != nullptr) {
    stream->devices = *stripe;
  } else {
    stream->devices.push_back(file->device());
  }
  stream->writer = true;
  stream->reserved_bytes = kept;
  stream->slots.resize(affordable);
  for (StreamSlot& slot : stream->slots) slot.data.resize(block_size_);
  return AdoptStream(std::move(stream));
}

void ReadScheduler::Unregister(ScheduledStream* stream) {
  std::unique_ptr<ScheduledStream> owned;
  util::Status parked_write;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stream->dying = true;  // workers claim no further reads
    // A pending write must still reach the device (the file is about to
    // be reopened for reading); in-flight ops own their slot buffers.
    stream->cv.wait(lock, [stream] { return stream->Idle(); });
    parked_write = stream->write_status;
    for (StorageDevice* device : stream->devices) {
      DeviceQueue* queue = queues_.at(device).get();
      auto it =
          std::find(queue->streams.begin(), queue->streams.end(), stream);
      DCHECK(it != queue->streams.end());
      queue->streams.erase(it);
      queue->cursor = 0;
    }
    auto it =
        std::find_if(streams_.begin(), streams_.end(),
                     [stream](const auto& s) { return s.get() == stream; });
    DCHECK(it != streams_.end());
    owned = std::move(*it);
    streams_.erase(it);
  }
  // Outside the scheduler lock; the budget is only ever touched by the
  // algorithm thread (the same thread running this Unregister).
  memory_->Release(owned->reserved_bytes);
  // A drained-but-failed final write surfaces now, while the file is
  // still alive: the last chance before the handle closes and the
  // writer's Finish checks status().
  if (!parked_write.ok()) owned->file->MarkError(parked_write);
}

bool ReadScheduler::TakeBlock(ScheduledStream* stream,
                              std::uint64_t block_index, void* buf,
                              std::size_t* bytes) {
  DCHECK(!stream->writer);
  std::unique_lock<std::mutex> lock(mu_);
  // The issue sequence is fixed; anything but the oldest unconsumed
  // block is a seek and ends the stream's scheduler service.
  if (block_index != stream->consume_block) return false;
  if (block_index >= stream->end_block) {
    *bytes = 0;  // past EOF: uncounted, like the direct path
    return true;
  }
  StreamSlot& slot = stream->slots[block_index % stream->slots.size()];
  stream->cv.wait(
      lock, [&slot] { return slot.state == StreamSlot::State::kFilled; });
  DCHECK_EQ(slot.block, block_index);
  if (!slot.status.ok()) {
    // The worker parked a read failure in this slot. Surface it on this
    // (the consumer's) thread as EOF-shaped 0 bytes plus the file's
    // sticky status; the stream is dead from here on.
    const util::Status failed = slot.status;
    slot.status = util::Status::Ok();
    slot.state = StreamSlot::State::kEmpty;
    stream->dying = true;
    stream->consume_block += 1;
    lock.unlock();
    stream->file->MarkError(failed);
    *bytes = 0;
    return true;
  }
  const std::size_t got = slot.bytes;
  // kFilled buffers belong to the consumer: copy unlocked (the payload
  // is a whole block; holding the scheduler mutex across it would
  // serialize every device's hand-off behind this memcpy).
  lock.unlock();
  std::memcpy(buf, slot.data.data(), got);
  lock.lock();
  slot.state = StreamSlot::State::kEmpty;
  stream->consume_block += 1;
  // The freed slot and the advanced window can unblock ANY member's
  // next issue — wake them all (width is small; spurious wakes are one
  // failed claim).
  for (StorageDevice* device : stream->devices) {
    queues_.at(device)->worker->cv.notify_all();
  }
  *bytes = got;
  return true;
}

void ReadScheduler::SubmitWrite(ScheduledStream* stream,
                                std::uint64_t block_index, const void* data,
                                std::size_t bytes) {
  DCHECK(stream->writer);
  DCHECK_LE(bytes, block_size_);
  // Block b parks in slot b % nslots; the per-slot bound is the double
  // buffer (a striped stream has up to one slot per member, so up to
  // width writes overlap). kEmpty slots belong to the producer, so the
  // copy runs unlocked.
  StreamSlot& slot = stream->slots[block_index % stream->slots.size()];
  std::unique_lock<std::mutex> lock(mu_);
  stream->cv.wait(
      lock, [&slot] { return slot.state == StreamSlot::State::kEmpty; });
  if (!stream->write_status.ok()) {
    // A previous async write failed: the file is dead. Park the error
    // on it (this is the producer thread) and drop the new block
    // instead of hammering the device.
    const util::Status failed = stream->write_status;
    lock.unlock();
    stream->file->MarkError(failed);
    return;
  }
  lock.unlock();
  std::memcpy(slot.data.data(), data, bytes);
  slot.block = block_index;
  slot.bytes = bytes;
  lock.lock();
  slot.state = StreamSlot::State::kPending;
  // Only the member owning this block may execute it.
  StorageDevice* owner =
      stream->devices[block_index % stream->devices.size()];
  queues_.at(owner)->worker->cv.notify_all();
}

std::size_t ReadScheduler::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

bool ReadScheduler::ClaimTaskOnDevice(StorageDevice* device,
                                      DeviceQueue* queue,
                                      ScheduledStream** stream,
                                      std::size_t* slot_index) {
  const std::size_t n = queue->streams.size();
  for (std::size_t i = 0; i < n; ++i) {
    ScheduledStream* candidate = queue->streams[(queue->cursor + i) % n];
    if (!candidate->Claim(device, slot_index)) continue;
    queue->cursor = (queue->cursor + i + 1) % n;  // round-robin fairness
    *stream = candidate;
    return true;
  }
  return false;
}

bool ReadScheduler::ClaimTask(Worker* worker, ScheduledStream** stream,
                              std::size_t* slot_index) {
  const std::size_t n = worker->devices.size();
  for (std::size_t i = 0; i < n; ++i) {
    StorageDevice* device = worker->devices[(worker->cursor + i) % n];
    DeviceQueue* queue = queues_.at(device).get();
    if (ClaimTaskOnDevice(device, queue, stream, slot_index)) {
      worker->cursor = (worker->cursor + i + 1) % n;
      return true;
    }
  }
  return false;
}

void ReadScheduler::WorkerLoop(Worker* worker) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    ScheduledStream* stream = nullptr;
    std::size_t slot_index = 0;
    if (!ClaimTask(worker, &stream, &slot_index)) {
      if (stop_) return;
      worker->cv.wait(lock);
      continue;
    }
    StreamSlot& slot = stream->slots[slot_index];
    // Device I/O OUTSIDE the scheduler lock — this is both the overlap
    // being bought and the ThrottledDevice-independence discipline: a
    // simulated device sleeping its latency here must not hold anything
    // a different device's worker needs.
    lock.unlock();
    util::Status io_status;
    if (stream->writer) {
      io_status =
          stream->file->RawWriteAt(slot.block, slot.data.data(), slot.bytes);
    } else {
      io_status =
          stream->file->PreadBlock(slot.block, slot.data.data(), &slot.bytes);
    }
    lock.lock();
    // A failed op never aborts the worker (it serves every stream on
    // this device): park the Status where the stream's owner thread
    // will find it — the slot for readers, the stream for writers —
    // and stop issuing further read-ahead on a dead reader.
    if (stream->writer) {
      if (!io_status.ok() && stream->write_status.ok()) {
        stream->write_status = io_status;
      }
      slot.state = StreamSlot::State::kEmpty;
    } else {
      slot.status = io_status;
      if (!io_status.ok()) stream->dying = true;
      slot.state = StreamSlot::State::kFilled;
    }
    stream->cv.notify_all();
  }
}

}  // namespace extscc::io
