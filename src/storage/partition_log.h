// A generic record-oriented partition log — the durable half of a broker
// topic partition (the historical answer store among them) and the
// aggregator daemon's query journal.
//
// Records append to size-bounded segment files under one directory. Each
// segment is named by the offset of its first record
// ("seg-<base offset, 20 digits>.log"), so the on-disk layout *is* the
// offset index. Records are written in batches (storage/record_batch.h),
// each length-prefixed and CRC-32 protected as a whole:
//
//   [u32 len][u32 crc][record batch]
//             \_ crc covers the len bytes of the batch _/
//
// so a batch costs one CRC, one write(2) and at most one fsync, however
// many records it holds. A single-record Append is a one-record batch.
//
// Recovery invariants (enforced by the constructor):
//   * Sealed segments (all but the newest) must parse end to end; a corrupt
//     batch in one throws SegmentLogError — it means lost history, not a
//     crash artifact.
//   * The newest segment may end in one torn batch (crash mid-append); Open
//     truncates it whole and counts a truncated tail. Every length is
//     bounded by the bytes left in the segment before anything is sized on
//     it.
//   * A frame whose CRC holds was written whole, so a batch in it that does
//     not parse (another format's magic byte: a log written before record
//     batches) throws SegmentLogError instead of being truncated as torn.
//   * Segment bases must be contiguous: base[i] + records[i] == base[i+1].
//     A gap means a segment went missing and replay would silently skip
//     offsets, so it throws.
//
// Retention: TrimBelow(watermark) deletes whole sealed segments whose
// records all sit below the consumer low-watermark; the active segment is
// never deleted, so base_offset() only moves forward in whole-segment steps.
//
// Durability: writes go through a POSIX fd; the fsync policy decides when
// the log pays for an fsync (never / sealing a segment on rotation / after
// the batch that crosses every N records / after every batch). One
// exclusive flock per directory (DirLock) makes double-opening the same log
// — from this or another process — a clear SegmentLogError instead of
// silently interleaved appends.

#ifndef PRIVAPPROX_STORAGE_PARTITION_LOG_H_
#define PRIVAPPROX_STORAGE_PARTITION_LOG_H_

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "storage/record_batch.h"

namespace privapprox::storage {

class SegmentLogError : public std::runtime_error {
 public:
  explicit SegmentLogError(const std::string& message)
      : std::runtime_error(message) {}
};

// When appends reach the disk.
enum class FsyncPolicy {
  kNever,          // OS decides (page cache only)
  kOnRotate,       // fsync a segment once, when it is sealed
  kEveryNRecords,  // fsync after the batch that crosses fsync_every_n
  kAlways,         // fsync after every batch
};

// Parses "never" | "on_rotate" | "every_n_records" | "always"; throws
// SegmentLogError on anything else. Name() is the inverse (flag echoing,
// bench row tags).
FsyncPolicy ParseFsyncPolicy(const std::string& name);
const char* FsyncPolicyName(FsyncPolicy policy);

struct PartitionLogOptions {
  // Rotate to a new segment once the active one reaches this size.
  uint64_t max_segment_bytes = 4 * 1024 * 1024;
  FsyncPolicy fsync = FsyncPolicy::kNever;
  // Only read under kEveryNRecords (values below 1 clamp to 1).
  uint64_t fsync_every_n = 256;
};

// Feeds privapprox_storage_* gauges; plain counters so storage keeps zero
// metrics-layer dependencies.
struct PartitionLogStats {
  uint64_t segments = 0;           // live segment files
  uint64_t bytes = 0;              // bytes across live segments
  uint64_t fsyncs = 0;             // fsync calls issued so far
  uint64_t recovered_records = 0;  // valid records replayed at open
  uint64_t truncated_tails = 0;    // torn tail batches truncated at open
};

// Exclusive advisory lock on a log directory, held for the lifetime of the
// object. flock-based, so a SIGKILLed owner releases it with its fds — no
// stale-lockfile recovery dance — while a live second opener (same or other
// process) gets a SegmentLogError naming the directory.
class DirLock {
 public:
  DirLock() = default;
  ~DirLock();

  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  // Takes <directory>/.lock exclusively; `owner` labels the error message.
  void Acquire(const std::filesystem::path& directory,
               const std::string& owner);
  void Release();
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

class PartitionLog {
 public:
  // [u32 len][u32 crc] in front of each batch.
  static constexpr size_t kFrameHeaderBytes = 8;

  // Opens (creating if needed) the log under `directory`, validating every
  // segment per the recovery invariants above. Throws SegmentLogError on IO
  // failure, unrecoverable corruption, offset discontinuity, or a directory
  // already locked by another instance.
  PartitionLog(std::filesystem::path directory, PartitionLogOptions options);
  ~PartitionLog();

  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  // Appends `count` records as one batch and returns the first one's
  // offset (== end_offset() before the call); `at(i)` returns record i as a
  // BatchRecord. One CRC, one write(2), and durability per the fsync policy
  // for the whole batch. An empty batch writes nothing.
  template <typename RecordAt>
  uint64_t AppendBatch(size_t count, const RecordAt& at) {
    if (count == 0) {
      return end_offset_;
    }
    scratch_.resize(kFrameHeaderBytes);
    AppendRecordBatch(count, at, scratch_);
    return WriteScratch(count);
  }

  // Appends one record as a one-record batch.
  uint64_t Append(uint64_t key, int64_t timestamp_ms,
                  std::span<const uint8_t> payload) {
    return AppendBatch(1, [&](size_t) {
      return BatchRecord{key, timestamp_ms, payload};
    });
  }

  // Forces the active segment to disk regardless of policy.
  void Sync();

  // Offset of the oldest record still on disk / next offset to assign.
  uint64_t base_offset() const;
  uint64_t end_offset() const { return end_offset_; }

  // Replays every record on disk, oldest first, in offset order. The
  // payload span is only valid for the duration of the callback.
  using ReplayFn = std::function<void(uint64_t offset, uint64_t key,
                                      int64_t timestamp_ms,
                                      std::span<const uint8_t> payload)>;
  void Replay(const ReplayFn& fn) const;

  // Deletes every sealed segment whose records all sit below `watermark`
  // (i.e. base + records <= watermark). The active segment survives even
  // when fully consumed. Returns segments deleted.
  size_t TrimBelow(uint64_t watermark);

  PartitionLogStats stats() const;
  size_t num_segments() const { return segments_.size(); }
  const std::filesystem::path& directory() const { return directory_; }

 private:
  struct Segment {
    uint64_t base = 0;     // offset of the segment's first record
    uint64_t records = 0;  // valid records in the segment
    uint64_t bytes = 0;    // valid bytes (post torn-tail truncation)
    std::string name;
  };

  void OpenActive();
  void RotateIfNeeded();
  void DoFsync();
  // Frames the batch in scratch_ behind its header, writes it and applies
  // the fsync policy; returns the batch's first offset.
  uint64_t WriteScratch(size_t count);

  std::filesystem::path directory_;
  PartitionLogOptions options_;
  DirLock lock_;
  std::vector<Segment> segments_;  // oldest first; back() is active
  int fd_ = -1;                    // active segment, O_APPEND
  uint64_t end_offset_ = 0;
  uint64_t records_since_sync_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t recovered_records_ = 0;
  uint64_t truncated_tails_ = 0;
  std::vector<uint8_t> scratch_;  // batch framing buffer, reused
};

}  // namespace privapprox::storage

#endif  // PRIVAPPROX_STORAGE_PARTITION_LOG_H_
