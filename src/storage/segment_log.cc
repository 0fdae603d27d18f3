#include "storage/segment_log.h"

#include <algorithm>
#include <cstring>

#include "storage/crc32.h"

namespace privapprox::storage {
namespace {

constexpr char kSegmentPrefix[] = "answers-";
constexpr char kSegmentSuffix[] = ".log";

std::string SegmentName(size_t index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s%06zu%s", kSegmentPrefix, index,
                kSegmentSuffix);
  return buffer;
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

SegmentedAnswerLog::SegmentedAnswerLog(std::filesystem::path directory)
    : SegmentedAnswerLog(std::move(directory), Options{}) {}

SegmentedAnswerLog::SegmentedAnswerLog(std::filesystem::path directory,
                                       Options options)
    : directory_(std::move(directory)), options_(options) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw SegmentLogError("cannot create log directory: " + ec.message());
  }
  lock_.Acquire(directory_, "SegmentedAnswerLog");
  // Discover existing segments (sorted by name == by index).
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(kSegmentPrefix) && name.ends_with(kSegmentSuffix)) {
      segment_names_.push_back(name);
    }
  }
  std::sort(segment_names_.begin(), segment_names_.end());
  // Validate all segments and count records; recover a torn tail in the
  // newest segment by truncating.
  for (size_t i = 0; i < segment_names_.size(); ++i) {
    const auto path = directory_ / segment_names_[i];
    size_t records = 0;
    const uint64_t valid_bytes =
        ScanSegment(path, nullptr, INT64_MIN, INT64_MAX, &records);
    const uint64_t file_size = std::filesystem::file_size(path);
    if (valid_bytes != file_size) {
      if (i + 1 != segment_names_.size()) {
        throw SegmentLogError("corrupt record in sealed segment " +
                              segment_names_[i]);
      }
      std::filesystem::resize_file(path, valid_bytes);
    }
    num_records_ += records;
  }
  if (segment_names_.empty()) {
    segment_names_.push_back(SegmentName(0));
  }
  OpenActiveSegment();
}

SegmentedAnswerLog::~SegmentedAnswerLog() { Sync(); }

void SegmentedAnswerLog::OpenActiveSegment() {
  const auto path = directory_ / segment_names_.back();
  active_.open(path, std::ios::binary | std::ios::app);
  if (!active_) {
    throw SegmentLogError("cannot open segment " + path.string());
  }
  std::error_code ec;
  active_bytes_ = std::filesystem::exists(path, ec)
                      ? std::filesystem::file_size(path, ec)
                      : 0;
}

void SegmentedAnswerLog::RotateIfNeeded() {
  if (active_bytes_ < options_.max_segment_bytes) {
    return;
  }
  active_.flush();
  active_.close();
  segment_names_.push_back(SegmentName(segment_names_.size()));
  OpenActiveSegment();
}

void SegmentedAnswerLog::Append(int64_t timestamp_ms,
                                const BitVector& answer) {
  RotateIfNeeded();
  std::vector<uint8_t> body;
  body.reserve(12 + answer.ByteSize());
  PutU64(body, static_cast<uint64_t>(timestamp_ms));
  PutU32(body, static_cast<uint32_t>(answer.size()));
  const std::span<const uint8_t> bits = answer.bytes();
  body.insert(body.end(), bits.begin(), bits.end());

  std::vector<uint8_t> record;
  record.reserve(8 + body.size());
  PutU32(record, static_cast<uint32_t>(body.size()));
  PutU32(record, Crc32(body.data(), body.size()));
  record.insert(record.end(), body.begin(), body.end());

  active_.write(reinterpret_cast<const char*>(record.data()),
                static_cast<std::streamsize>(record.size()));
  if (!active_) {
    throw SegmentLogError("append failed");
  }
  active_bytes_ += record.size();
  ++num_records_;
}

void SegmentedAnswerLog::Sync() {
  if (active_.is_open()) {
    active_.flush();
  }
}

uint64_t SegmentedAnswerLog::ScanSegment(const std::filesystem::path& path,
                                         ResponseStore* store,
                                         int64_t from_ms, int64_t to_ms,
                                         size_t* records_seen) const {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SegmentLogError("cannot read segment " + path.string());
  }
  uint64_t offset = 0;
  for (;;) {
    uint8_t header[8];
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (in.gcount() == 0) {
      break;  // clean end
    }
    if (in.gcount() < static_cast<std::streamsize>(sizeof(header))) {
      return offset;  // torn header
    }
    const uint32_t len = GetU32(header);
    const uint32_t crc = GetU32(header + 4);
    if (len < 12 || len > (1u << 24)) {
      return offset;  // implausible length: treat as torn/corrupt
    }
    std::vector<uint8_t> body(len);
    in.read(reinterpret_cast<char*>(body.data()), len);
    if (in.gcount() < static_cast<std::streamsize>(len)) {
      return offset;  // torn body
    }
    if (Crc32(body.data(), body.size()) != crc) {
      return offset;  // corrupt body
    }
    const int64_t timestamp = static_cast<int64_t>(GetU64(body.data()));
    const uint32_t num_bits = GetU32(body.data() + 8);
    const size_t answer_bytes = (static_cast<size_t>(num_bits) + 7) / 8;
    if (12 + answer_bytes != body.size()) {
      return offset;
    }
    if (records_seen != nullptr) {
      ++*records_seen;
    }
    if (store != nullptr && timestamp >= from_ms && timestamp < to_ms) {
      store->Append(timestamp,
                    BitVector::FromBytes(
                        std::span<const uint8_t>(body).subspan(12), num_bits));
    }
    offset += 8 + len;
  }
  return offset;
}

ResponseStore SegmentedAnswerLog::LoadRange(int64_t from_ms,
                                                        int64_t to_ms) {
  Sync();
  ResponseStore store;
  for (const std::string& name : segment_names_) {
    size_t seen = 0;
    ScanSegment(directory_ / name, &store, from_ms, to_ms, &seen);
  }
  return store;
}

}  // namespace privapprox::storage
