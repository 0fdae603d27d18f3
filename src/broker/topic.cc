#include "broker/topic.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace privapprox::broker {
namespace {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

size_t PartitionForKey(uint64_t key, size_t num_partitions) {
  return static_cast<size_t>(Mix64(key) % std::max<size_t>(1, num_partitions));
}

Topic::Topic(std::string name, size_t num_partitions)
    : name_(std::move(name)), partitions_(std::max<size_t>(1, num_partitions)) {
  if (name_.empty()) {
    throw std::invalid_argument("Topic: empty name");
  }
}

Topic::Topic(std::string name, size_t num_partitions,
             const TopicDurability& durability)
    : Topic(std::move(name), num_partitions) {
  durable_ = true;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& partition = partitions_[p];
    partition.log = std::make_unique<storage::PartitionLog>(
        durability.directory / ("p" + std::to_string(p)), durability.log);
    partition.base = partition.log->base_offset();
    // Recovery replay: rebuild the in-memory slabs/index from disk. No lock
    // needed — the topic is not yet published. Replay goes through the
    // memory-only append so records are not re-spilled.
    partition.log->Replay([&partition](uint64_t /*offset*/, uint64_t key,
                                       int64_t timestamp_ms,
                                       std::span<const uint8_t> payload) {
      AppendToMemory(partition, key, payload, timestamp_ms);
    });
    // Replayed records are not re-counted in records_in_ — that counter
    // means "produced into this incarnation"; recovery volume is surfaced
    // separately via durable_stats().recovered_records.
  }
}

size_t Topic::PartitionOf(uint64_t key) const {
  return static_cast<size_t>(Mix64(key) % partitions_.size());
}

void Topic::OpenSlab(Partition& partition, size_t min_cap) {
  const uint64_t end = partition.base + partition.index.size();
  if (!partition.slabs.empty()) {
    partition.slabs.back().end = end;
  }
  std::vector<Slab>& spares = partition.spares;
  for (size_t i = spares.size(); i-- > 0;) {
    if (spares[i].cap >= min_cap) {
      Slab slab = std::move(spares[i]);
      spares.erase(spares.begin() + static_cast<ptrdiff_t>(i));
      slab.used = 0;
      partition.slabs.push_back(std::move(slab));
      return;
    }
  }
  const size_t cap = std::max(min_cap, kSlabChunkBytes);
  partition.slabs.push_back(Slab{std::make_unique<uint8_t[]>(cap), 0, cap});
}

uint8_t* Topic::SlabAlloc(Partition& partition, size_t len) {
  if (partition.slabs.empty() ||
      partition.slabs.back().cap - partition.slabs.back().used < len) {
    OpenSlab(partition, len);
  }
  Slab& slab = partition.slabs.back();
  uint8_t* out = slab.data.get() + slab.used;
  slab.used += len;
  return out;
}

void Topic::EnsureIndexCapacity(Partition& partition, size_t additional) {
  const size_t needed = partition.index.size() + additional;
  if (partition.index.capacity() < needed) {
    // Grow geometrically even through explicit reserves — reserving exactly
    // `needed` every batch would reallocate the index once per batch.
    partition.index.reserve(
        std::max(needed, partition.index.capacity() * 2));
  }
}

void Topic::AppendToMemory(Partition& partition, uint64_t key,
                           std::span<const uint8_t> payload,
                           int64_t timestamp_ms) {
  uint8_t* dst = SlabAlloc(partition, payload.size());
  if (!payload.empty()) {
    std::memcpy(dst, payload.data(), payload.size());
  }
  partition.index.push_back(IndexEntry{
      dst, static_cast<uint32_t>(payload.size()), timestamp_ms, key});
}

void Topic::SpillLocked(Partition& partition, size_t first) {
  if (partition.log == nullptr) {
    return;
  }
  // Disk stays in lockstep with memory: the log's end offset equals
  // base + index.size() by construction (replay filled exactly
  // [base, end), and every run lands in both under this lock). The run
  // index[first, end) becomes one batch: one CRC, one write, one fsync.
  partition.log->AppendBatch(
      partition.index.size() - first, [&partition, first](size_t i) {
        const IndexEntry& entry = partition.index[first + i];
        return storage::BatchRecord{
            entry.key, entry.timestamp_ms,
            std::span<const uint8_t>(entry.payload, entry.payload_len)};
      });
}

uint64_t Topic::Append(uint64_t key, std::span<const uint8_t> payload,
                       int64_t timestamp_ms) {
  Partition& partition = partitions_[PartitionOf(key)];
  uint64_t offset;
  {
    std::lock_guard<std::mutex> lock(partition.mu);
    offset = partition.base + partition.index.size();
    AppendToMemory(partition, key, payload, timestamp_ms);
    SpillLocked(partition, partition.index.size() - 1);
  }
  records_in_.fetch_add(1, std::memory_order_relaxed);
  bytes_in_.fetch_add(payload.size(), std::memory_order_relaxed);
  return offset;
}

void Topic::AppendBatch(std::vector<ProduceRecord> records) {
  if (records.empty()) {
    return;
  }
  uint64_t bytes = 0;
  for (const auto& record : records) {
    bytes += record.payload.size();
  }
  if (partitions_.size() == 1) {
    Partition& partition = partitions_[0];
    std::lock_guard<std::mutex> lock(partition.mu);
    EnsureIndexCapacity(partition, records.size());
    const size_t first = partition.index.size();
    for (const auto& record : records) {
      AppendToMemory(partition, record.key, record.payload,
                     record.timestamp_ms);
    }
    SpillLocked(partition, first);
  } else {
    std::vector<std::vector<size_t>> by_partition(partitions_.size());
    for (size_t i = 0; i < records.size(); ++i) {
      by_partition[PartitionOf(records[i].key)].push_back(i);
    }
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if (by_partition[p].empty()) {
        continue;
      }
      Partition& partition = partitions_[p];
      std::lock_guard<std::mutex> lock(partition.mu);
      EnsureIndexCapacity(partition, by_partition[p].size());
      const size_t first = partition.index.size();
      for (size_t i : by_partition[p]) {
        AppendToMemory(partition, records[i].key, records[i].payload,
                       records[i].timestamp_ms);
      }
      SpillLocked(partition, first);
    }
  }
  records_in_.fetch_add(records.size(), std::memory_order_relaxed);
  bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
}

void Topic::AppendViews(std::span<const ProduceView> records) {
  if (records.empty()) {
    return;
  }
  uint64_t bytes = 0;
  for (const auto& record : records) {
    bytes += record.payload.size();
  }
  if (partitions_.size() == 1) {
    Partition& partition = partitions_[0];
    std::lock_guard<std::mutex> lock(partition.mu);
    EnsureIndexCapacity(partition, records.size());
    const size_t first = partition.index.size();
    for (const auto& record : records) {
      AppendToMemory(partition, record.key, record.payload,
                     record.timestamp_ms);
    }
    SpillLocked(partition, first);
  } else {
    // Route once into a reused thread-local scratch (amortized
    // allocation-free), then take each partition lock once.
    static thread_local std::vector<uint32_t> routes;
    static thread_local std::vector<uint32_t> counts;
    routes.clear();
    routes.reserve(records.size());
    counts.assign(partitions_.size(), 0);
    for (const auto& record : records) {
      const uint32_t p = static_cast<uint32_t>(PartitionOf(record.key));
      routes.push_back(p);
      ++counts[p];
    }
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if (counts[p] == 0) {
        continue;
      }
      Partition& partition = partitions_[p];
      std::lock_guard<std::mutex> lock(partition.mu);
      EnsureIndexCapacity(partition, counts[p]);
      const size_t first = partition.index.size();
      for (size_t i = 0; i < records.size(); ++i) {
        if (routes[i] == p) {
          AppendToMemory(partition, records[i].key, records[i].payload,
                         records[i].timestamp_ms);
        }
      }
      SpillLocked(partition, first);
    }
  }
  records_in_.fetch_add(records.size(), std::memory_order_relaxed);
  bytes_in_.fetch_add(bytes, std::memory_order_relaxed);
}

void Topic::Reserve(size_t partition_index, size_t records,
                    size_t payload_bytes) {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::Reserve: bad partition");
  }
  Partition& partition = partitions_[partition_index];
  std::lock_guard<std::mutex> lock(partition.mu);
  EnsureIndexCapacity(partition, records);
  if (payload_bytes > 0 &&
      (partition.slabs.empty() ||
       partition.slabs.back().cap - partition.slabs.back().used <
           payload_bytes)) {
    OpenSlab(partition, payload_bytes);
  }
}

std::vector<Record> Topic::Read(size_t partition_index, uint64_t offset,
                                size_t max_records) const {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::Read: bad partition");
  }
  const Partition& partition = partitions_[partition_index];
  std::vector<Record> out;
  size_t count = 0;
  size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(partition.mu);
    const uint64_t end = partition.base + partition.index.size();
    for (uint64_t i = std::max(offset, partition.base);
         i < end && count < max_records; ++i, ++count) {
      const IndexEntry& entry =
          partition.index[static_cast<size_t>(i - partition.base)];
      out.push_back(Record{
          i, entry.timestamp_ms, entry.key,
          std::vector<uint8_t>(entry.payload,
                               entry.payload + entry.payload_len)});
      bytes += entry.payload_len;
    }
  }
  records_out_.fetch_add(count, std::memory_order_relaxed);
  bytes_out_.fetch_add(bytes, std::memory_order_relaxed);
  return out;
}

void Topic::ReadViews(size_t partition_index, uint64_t offset,
                      size_t max_records, std::vector<RecordView>& out,
                      size_t max_bytes) const {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::ReadViews: bad partition");
  }
  const Partition& partition = partitions_[partition_index];
  size_t count = 0;
  size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(partition.mu);
    const uint64_t end = partition.base + partition.index.size();
    for (uint64_t i = std::max(offset, partition.base);
         i < end && count < max_records; ++i, ++count) {
      const IndexEntry& entry =
          partition.index[static_cast<size_t>(i - partition.base)];
      if (count > 0 && bytes + entry.payload_len > max_bytes) {
        break;
      }
      out.push_back(RecordView{i, entry.timestamp_ms, entry.key,
                               entry.payload, entry.payload_len});
      bytes += entry.payload_len;
    }
  }
  records_out_.fetch_add(count, std::memory_order_relaxed);
  bytes_out_.fetch_add(bytes, std::memory_order_relaxed);
}

uint64_t Topic::EndOffset(size_t partition_index) const {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::EndOffset: bad partition");
  }
  const Partition& partition = partitions_[partition_index];
  std::lock_guard<std::mutex> lock(partition.mu);
  return partition.base + partition.index.size();
}

void Topic::Release(size_t partition_index, uint64_t offset) {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::Release: bad partition");
  }
  Partition& partition = partitions_[partition_index];
  std::lock_guard<std::mutex> lock(partition.mu);
  const uint64_t end = partition.base + partition.index.size();
  offset = std::min(offset, end);
  if (offset <= partition.base) {
    return;
  }
  const auto released_records =
      static_cast<ptrdiff_t>(offset - partition.base);
  partition.index.erase(partition.index.begin(),
                        partition.index.begin() + released_records);
  partition.base = offset;
  // Slabs fill in offset order, so the fully released ones are a prefix.
  // The most recently released become the spares.
  if (!partition.slabs.empty()) {
    partition.slabs.back().end = end;
  }
  size_t released = 0;
  while (released < partition.slabs.size() &&
         partition.slabs[released].end <= offset) {
    partition.spares.push_back(std::move(partition.slabs[released]));
    ++released;
  }
  partition.slabs.erase(
      partition.slabs.begin(),
      partition.slabs.begin() + static_cast<ptrdiff_t>(released));
  if (partition.spares.size() > kSpareSlabs) {
    partition.spares.erase(
        partition.spares.begin(),
        partition.spares.end() - static_cast<ptrdiff_t>(kSpareSlabs));
  }
}

size_t Topic::AdvanceWatermark(size_t partition_index, uint64_t offset) {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::AdvanceWatermark: bad partition");
  }
  Partition& partition = partitions_[partition_index];
  std::lock_guard<std::mutex> lock(partition.mu);
  if (partition.log == nullptr) {
    return 0;
  }
  // Never trim past what exists — a watermark from a confused consumer must
  // not delete the active segment's future.
  const uint64_t end = partition.base + partition.index.size();
  return partition.log->TrimBelow(std::min(offset, end));
}

void Topic::SyncDurable() {
  for (Partition& partition : partitions_) {
    std::lock_guard<std::mutex> lock(partition.mu);
    if (partition.log != nullptr) {
      partition.log->Sync();
    }
  }
}

DurableStats Topic::durable_stats() const {
  DurableStats stats;
  for (const Partition& partition : partitions_) {
    std::lock_guard<std::mutex> lock(partition.mu);
    if (partition.log == nullptr) {
      continue;
    }
    const storage::PartitionLogStats log_stats = partition.log->stats();
    stats.segments += log_stats.segments;
    stats.bytes += log_stats.bytes;
    stats.fsyncs += log_stats.fsyncs;
    stats.recovered_records += log_stats.recovered_records;
    stats.truncated_tails += log_stats.truncated_tails;
  }
  return stats;
}

TopicMetrics Topic::metrics() const {
  TopicMetrics metrics;
  metrics.records_in = records_in_.load(std::memory_order_relaxed);
  metrics.records_out = records_out_.load(std::memory_order_relaxed);
  metrics.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  metrics.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return metrics;
}

SlabStats Topic::slab_stats() const {
  SlabStats stats;
  for (const Partition& partition : partitions_) {
    std::lock_guard<std::mutex> lock(partition.mu);
    stats.slabs += partition.slabs.size() + partition.spares.size();
    for (const Slab& slab : partition.slabs) {
      stats.allocated_bytes += slab.cap;
      stats.used_bytes += slab.used;
    }
    for (const Slab& slab : partition.spares) {
      stats.allocated_bytes += slab.cap;
    }
    stats.retained_records += partition.index.size();
  }
  return stats;
}

}  // namespace privapprox::broker
