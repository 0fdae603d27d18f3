#include "storage/partition_log.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/byte_order.h"
#include "storage/crc32.h"

namespace privapprox::storage {
namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".log";
constexpr char kLockName[] = ".lock";

std::string SegmentName(uint64_t base_offset) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%s%020llu%s", kSegmentPrefix,
                static_cast<unsigned long long>(base_offset), kSegmentSuffix);
  return buffer;
}

// `directory` / `name` names the file in the error; the path is built only
// when a write fails, so appends allocate nothing.
void WriteAll(int fd, const uint8_t* data, size_t len,
              const std::filesystem::path& directory,
              const std::string& name) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw SegmentLogError("write failed on " + (directory / name).string() +
                            ": " + std::strerror(errno));
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
}

struct ScanResult {
  uint64_t valid_bytes = 0;
  uint64_t records = 0;
};

// Parses a batch whose frame CRC holds. Such a frame was written whole, so
// a batch that does not parse is another format or corruption the CRC
// missed, never a torn write: it throws.
RecordBatchView ParseWrittenBatch(std::span<const uint8_t> body,
                                  const std::filesystem::path& path,
                                  uint64_t at) {
  const std::string where = path.string() + " at byte " + std::to_string(at);
  if (body[0] != kRecordBatchMagic) {
    char magic[8];
    std::snprintf(magic, sizeof(magic), "0x%02X", body[0]);
    throw SegmentLogError(
        "segment " + where + " holds format magic " + magic +
        ", not a record batch: a log written before record batches (or in "
        "another format) is not readable");
  }
  try {
    return RecordBatchView(body);
  } catch (const std::invalid_argument& e) {
    throw SegmentLogError("corrupt batch in segment " + where + ": " +
                          e.what());
  }
}

// Walks the first `limit` bytes of one segment batch by batch, stopping at
// the first byte offset that does not hold a complete, CRC-valid batch. If
// `fn` is set it is called for every record of every valid batch with
// offsets starting at `base_offset`.
ScanResult ScanSegment(const std::filesystem::path& path, uint64_t limit,
                       uint64_t base_offset,
                       const PartitionLog::ReplayFn* fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SegmentLogError("cannot read segment " + path.string());
  }
  ScanResult result;
  std::vector<uint8_t> body;
  constexpr size_t kHeader = PartitionLog::kFrameHeaderBytes;
  while (limit - result.valid_bytes >= kHeader) {  // fewer: end or torn
    uint8_t header[kHeader];
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (in.gcount() < static_cast<std::streamsize>(sizeof(header))) {
      break;  // the file shrank under the scan
    }
    const uint32_t len = LoadLe<uint32_t>(header);
    const uint32_t crc = LoadLe<uint32_t>(header + 4);
    // A length is trusted only as far as the segment holds its bytes, so a
    // torn header claiming megabytes sizes nothing.
    if (len < kRecordBatchHeaderBytes ||
        len > limit - result.valid_bytes - kHeader) {
      break;  // torn (or zero-filled) tail
    }
    body.resize(len);
    in.read(reinterpret_cast<char*>(body.data()), len);
    if (in.gcount() < static_cast<std::streamsize>(len) ||
        Crc32(body.data(), body.size()) != crc) {
      break;  // torn or corrupt body
    }
    const RecordBatchView batch =
        ParseWrittenBatch(body, path, result.valid_bytes);
    if (fn != nullptr) {
      uint64_t offset = base_offset + result.records;
      batch.ForEach([&](const BatchRecord& record) {
        (*fn)(offset++, record.key, record.timestamp_ms, record.payload);
      });
    }
    result.records += batch.size();
    result.valid_bytes += kHeader + len;
  }
  return result;
}

}  // namespace

FsyncPolicy ParseFsyncPolicy(const std::string& name) {
  if (name == "never") {
    return FsyncPolicy::kNever;
  }
  if (name == "on_rotate") {
    return FsyncPolicy::kOnRotate;
  }
  if (name == "every_n_records") {
    return FsyncPolicy::kEveryNRecords;
  }
  if (name == "always") {
    return FsyncPolicy::kAlways;
  }
  throw SegmentLogError(
      "unknown fsync policy '" + name +
      "' (want never|on_rotate|every_n_records|always)");
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kOnRotate:
      return "on_rotate";
    case FsyncPolicy::kEveryNRecords:
      return "every_n_records";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

DirLock::~DirLock() { Release(); }

void DirLock::Acquire(const std::filesystem::path& directory,
                      const std::string& owner) {
  Release();
  const std::filesystem::path path = directory / kLockName;
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw SegmentLogError("cannot open lockfile " + path.string() + ": " +
                          std::strerror(errno));
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    throw SegmentLogError(owner + ": directory " + directory.string() +
                          " is already locked by another instance (" +
                          std::strerror(err) + ")");
  }
  fd_ = fd;
}

void DirLock::Release() {
  if (fd_ >= 0) {
    ::close(fd_);  // releases the flock
    fd_ = -1;
  }
}

PartitionLog::PartitionLog(std::filesystem::path directory,
                           PartitionLogOptions options)
    : directory_(std::move(directory)), options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw SegmentLogError("cannot create log directory " +
                          directory_.string() + ": " + ec.message());
  }
  lock_.Acquire(directory_, "PartitionLog");

  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kSegmentPrefix) || !name.ends_with(kSegmentSuffix)) {
      continue;
    }
    const std::string digits = name.substr(
        sizeof(kSegmentPrefix) - 1,
        name.size() - (sizeof(kSegmentPrefix) - 1) - (sizeof(kSegmentSuffix) - 1));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      throw SegmentLogError("unparseable segment name " + name);
    }
    Segment segment;
    segment.base = std::stoull(digits);
    segment.name = name;
    segments_.push_back(std::move(segment));
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.base < b.base; });

  for (size_t i = 0; i < segments_.size(); ++i) {
    Segment& segment = segments_[i];
    if (i > 0 && segments_[i - 1].base + segments_[i - 1].records !=
                     segment.base) {
      throw SegmentLogError("segment offset discontinuity at " + segment.name +
                            " in " + directory_.string());
    }
    const auto path = directory_ / segment.name;
    const uint64_t file_size = std::filesystem::file_size(path);
    const ScanResult scan =
        ScanSegment(path, file_size, segment.base, nullptr);
    if (scan.valid_bytes != file_size) {
      if (i + 1 != segments_.size()) {
        throw SegmentLogError("corrupt batch in sealed segment " +
                              segment.name + " in " + directory_.string());
      }
      std::filesystem::resize_file(path, scan.valid_bytes);
      ++truncated_tails_;
    }
    segment.records = scan.records;
    segment.bytes = scan.valid_bytes;
    recovered_records_ += scan.records;
  }
  if (segments_.empty()) {
    segments_.push_back(Segment{0, 0, 0, SegmentName(0)});
  }
  end_offset_ = segments_.back().base + segments_.back().records;
  OpenActive();
}

PartitionLog::~PartitionLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void PartitionLog::OpenActive() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
  const auto path = directory_ / segments_.back().name;
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw SegmentLogError("cannot open segment " + path.string() + ": " +
                          std::strerror(errno));
  }
}

void PartitionLog::DoFsync() {
  if (::fsync(fd_) != 0) {
    throw SegmentLogError("fsync failed on " +
                          (directory_ / segments_.back().name).string() +
                          ": " + std::strerror(errno));
  }
  ++fsyncs_;
  records_since_sync_ = 0;
}

void PartitionLog::RotateIfNeeded() {
  if (segments_.back().bytes < options_.max_segment_bytes) {
    return;
  }
  // Seal the active segment. Every policy but kNever pays one fsync here so
  // a sealed segment is durable before appends move past it.
  if (options_.fsync != FsyncPolicy::kNever) {
    DoFsync();
  }
  ::close(fd_);
  fd_ = -1;
  segments_.push_back(Segment{end_offset_, 0, 0, SegmentName(end_offset_)});
  OpenActive();  // creates the file eagerly — recovery tolerates it empty
  if (options_.fsync != FsyncPolicy::kNever) {
    // Make the new file's directory entry durable too.
    const int dir_fd = ::open(directory_.c_str(), O_RDONLY | O_CLOEXEC);
    if (dir_fd >= 0) {
      ::fsync(dir_fd);
      ::close(dir_fd);
      ++fsyncs_;
    }
  }
}

uint64_t PartitionLog::WriteScratch(size_t count) {
  RotateIfNeeded();
  uint8_t* frame = scratch_.data();
  const size_t len = scratch_.size() - kFrameHeaderBytes;
  StoreLe<uint32_t>(frame, static_cast<uint32_t>(len));
  StoreLe<uint32_t>(frame + 4, Crc32(frame + kFrameHeaderBytes, len));
  WriteAll(fd_, frame, scratch_.size(), directory_, segments_.back().name);

  Segment& active = segments_.back();
  active.bytes += scratch_.size();
  active.records += count;
  const uint64_t offset = end_offset_;
  end_offset_ += count;

  switch (options_.fsync) {
    case FsyncPolicy::kAlways:
      DoFsync();
      break;
    case FsyncPolicy::kEveryNRecords:
      records_since_sync_ += count;
      if (records_since_sync_ >=
          std::max<uint64_t>(1, options_.fsync_every_n)) {
        DoFsync();
      }
      break;
    case FsyncPolicy::kNever:
    case FsyncPolicy::kOnRotate:
      break;
  }
  return offset;
}

void PartitionLog::Sync() {
  if (fd_ >= 0) {
    DoFsync();
  }
}

uint64_t PartitionLog::base_offset() const {
  return segments_.empty() ? 0 : segments_.front().base;
}

void PartitionLog::Replay(const ReplayFn& fn) const {
  for (const Segment& segment : segments_) {
    const ScanResult scan = ScanSegment(directory_ / segment.name,
                                        segment.bytes, segment.base, &fn);
    if (scan.records != segment.records) {
      throw SegmentLogError("segment " + segment.name +
                            " changed under replay in " + directory_.string());
    }
  }
}

size_t PartitionLog::TrimBelow(uint64_t watermark) {
  size_t removed = 0;
  while (segments_.size() > 1 &&
         segments_.front().base + segments_.front().records <= watermark) {
    std::error_code ec;
    std::filesystem::remove(directory_ / segments_.front().name, ec);
    if (ec) {
      throw SegmentLogError("cannot remove segment " +
                            segments_.front().name + ": " + ec.message());
    }
    segments_.erase(segments_.begin());
    ++removed;
  }
  return removed;
}

PartitionLogStats PartitionLog::stats() const {
  PartitionLogStats stats;
  stats.segments = segments_.size();
  for (const Segment& segment : segments_) {
    stats.bytes += segment.bytes;
  }
  stats.fsyncs = fsyncs_;
  stats.recovered_records = recovered_records_;
  stats.truncated_tails = truncated_tails_;
  return stats;
}

}  // namespace privapprox::storage
