#include "broker/topic.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/byte_order.h"

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
    partition.base = partition.end = partition.log->base_offset();
    // Recovery replay: rebuild the in-memory slabs and runs from disk. No
    // lock needed — the topic is not yet published. Replay goes through the
    // memory-only append so records are not re-spilled, and rebuilds the
    // runs the records were appended in.
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

void Topic::OpenSlab(Partition& partition, size_t min_cap) {
  if (!partition.slabs.empty()) {
    partition.slabs.back().end = partition.end;
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

void Topic::AppendToMemory(Partition& partition, uint64_t key,
                           std::span<const uint8_t> payload,
                           int64_t timestamp_ms) {
  const size_t len = payload.size();
  const bool key_is_prefix =
      len >= 8 && LoadLe<uint64_t>(payload.data()) == key;
  if (key_is_prefix && !partition.runs.empty()) {
    // The back run takes the record when it is a prefix-keyed run of this
    // width and timestamp that ends exactly where the back slab's free
    // space starts, and that space holds the record.
    Run& run = partition.runs.back();
    Slab& slab = partition.slabs.back();
    const size_t run_bytes = size_t{run.count} * run.width;
    if (!run.key_in_slab && run.width == len &&
        run.timestamp_ms == timestamp_ms && run.count < kMaxRunRecords &&
        slab.cap - slab.used >= len && slab.used >= run_bytes &&
        run.payload == slab.data.get() + (slab.used - run_bytes)) {
      std::memcpy(slab.data.get() + slab.used, payload.data(), len);
      slab.used += len;
      ++run.count;
      ++partition.end;
      return;
    }
  }
  const size_t key_bytes = key_is_prefix ? 0 : 8;
  uint8_t* dst = SlabAlloc(partition, key_bytes + len);
  if (!key_is_prefix) {
    StoreLe<uint64_t>(dst, key);
    dst += key_bytes;
  }
  if (len > 0) {
    std::memcpy(dst, payload.data(), len);
  }
  partition.runs.push_back(Run{partition.end, dst, timestamp_ms,
                               static_cast<uint32_t>(len), 1, !key_is_prefix});
  ++partition.end;
}

RecordView Topic::RecordOf(const Run& run, uint64_t i) {
  const uint8_t* payload = run.payload + i * run.width;
  // A key_in_slab run holds one record, so i == 0 and its key is in front.
  return RecordView{run.base + i, run.timestamp_ms,
                    LoadLe<uint64_t>(run.key_in_slab ? payload - 8 : payload),
                    payload, run.width};
}

template <typename Fn>
void Topic::ForEachRecord(const Partition& partition, uint64_t offset,
                          const Fn& fn) {
  const std::vector<Run>& runs = partition.runs;
  offset = std::max(offset, partition.base);
  // The run holding `offset` is the last one starting at or before it.
  auto run = std::upper_bound(
      runs.begin(), runs.end(), offset,
      [](uint64_t o, const Run& r) { return o < r.base; });
  if (run == runs.begin()) {
    return;  // no retained records
  }
  for (--run; run != runs.end(); ++run) {
    for (uint64_t i = offset - run->base; i < run->count; ++i) {
      if (!fn(RecordOf(*run, i))) {
        return;
      }
    }
    offset = run->base + run->count;
  }
}

void Topic::SpillLocked(Partition& partition, uint64_t first) {
  if (partition.log == nullptr || first == partition.end) {
    return;
  }
  // Disk stays in lockstep with memory: the log's end offset equals `end`
  // by construction (replay filled exactly [base, end), and every append
  // lands in both under this lock). The records [first, end) become one
  // batch: one CRC, one write, one fsync. The encoder reads them in order,
  // pass after pass, so a cursor walks the runs and rewinds to the run
  // holding `first` when a pass starts over.
  const std::vector<Run>& runs = partition.runs;
  size_t start = runs.size() - 1;
  while (runs[start].base > first) {
    --start;
  }
  size_t at = start;
  partition.log->AppendBatch(
      partition.end - first, [&runs, first, start, &at](size_t i) {
        const uint64_t offset = first + i;
        if (offset < runs[at].base) {
          at = start;
        }
        while (offset >= runs[at].base + runs[at].count) {
          ++at;
        }
        const RecordView view = RecordOf(runs[at], offset - runs[at].base);
        return storage::BatchRecord{view.key, view.timestamp_ms,
                                    view.bytes()};
      });
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
    const uint64_t first = partition.end;
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
      const auto p = static_cast<uint32_t>(
          PartitionForKey(record.key, partitions_.size()));
      routes.push_back(p);
      ++counts[p];
    }
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if (counts[p] == 0) {
        continue;
      }
      Partition& partition = partitions_[p];
      std::lock_guard<std::mutex> lock(partition.mu);
      const uint64_t first = partition.end;
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

void Topic::Reserve(size_t partition_index, size_t payload_bytes) {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::Reserve: bad partition");
  }
  Partition& partition = partitions_[partition_index];
  std::lock_guard<std::mutex> lock(partition.mu);
  if (payload_bytes > 0 &&
      (partition.slabs.empty() ||
       partition.slabs.back().cap - partition.slabs.back().used <
           payload_bytes)) {
    OpenSlab(partition, payload_bytes);
  }
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
    ForEachRecord(partition, offset, [&](const RecordView& view) {
      if (count == max_records ||
          (count > 0 && bytes + view.payload_len > max_bytes)) {
        return false;
      }
      out.push_back(view);
      ++count;
      bytes += view.payload_len;
      return true;
    });
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
  return partition.end;
}

void Topic::Release(size_t partition_index, uint64_t offset) {
  if (partition_index >= partitions_.size()) {
    throw std::out_of_range("Topic::Release: bad partition");
  }
  Partition& partition = partitions_[partition_index];
  std::lock_guard<std::mutex> lock(partition.mu);
  offset = std::min(offset, partition.end);
  if (offset <= partition.base) {
    return;
  }
  partition.base = offset;
  // Runs go whole while they end at or below the offset; the one it cuts
  // keeps its tail.
  std::vector<Run>& runs = partition.runs;
  const auto kept = std::partition_point(
      runs.begin(), runs.end(),
      [offset](const Run& run) { return run.base + run.count <= offset; });
  runs.erase(runs.begin(), kept);
  if (!runs.empty() && runs.front().base < offset) {
    Run& run = runs.front();
    const uint64_t cut = offset - run.base;
    run.base = offset;
    run.payload += cut * run.width;
    run.count -= static_cast<uint32_t>(cut);
  }
  // Slabs fill in offset order, so the fully released ones are a prefix.
  // The most recently released become the spares.
  if (!partition.slabs.empty()) {
    partition.slabs.back().end = partition.end;
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
  return partition.log->TrimBelow(std::min(offset, partition.end));
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
    stats.retained_records += partition.end - partition.base;
    stats.index_runs += partition.runs.size();
    stats.index_bytes += partition.runs.capacity() * sizeof(Run);
  }
  return stats;
}

}  // namespace privapprox::broker
