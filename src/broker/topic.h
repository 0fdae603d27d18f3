// A pub/sub topic: an append-only, partitioned record log.
//
// This is the Kafka stand-in (see DESIGN.md): PrivApprox proxies are Kafka
// brokers with two topics — `key` and `answer` — carrying the two halves of
// the XOR-split message streams (§5). Records are opaque payloads keyed by
// message id; a key-hash assigns partitions so one MID's shares always land
// in the same partition of each topic.
//
// Storage layout (zero-copy share path): each partition stores payload
// bytes in append-only slabs — large heap chunks that are never moved —
// plus a sparse index of runs. A run is records appended back to back into
// one slab with one length and one timestamp, each keyed by its payload's
// first 8 bytes (little-endian): the lane share layout, and the rule a
// record batch uses to drop its key column. One 32-byte entry {base offset,
// payload pointer, timestamp, width, count} indexes the whole run, and
// record base + i is found by arithmetic. A record that fits no run starts
// the next one; one keyed any other way is a one-record run whose key sits
// in the slab, in the 8 bytes in front of its payload. So lane traffic
// costs one entry per append call and slab, and any traffic at most one
// entry per record.
//
// A topic has one append and one read: AppendViews copies each payload
// once into the slab, and ReadViews (behind transport::BusConsumer) returns
// pointers into the slabs, so consumers decode records in place with no
// per-record vector. Slab bytes are immutable once their run is published
// under the partition lock, so a RecordView stays valid while producers
// keep appending — until the partition's consumer releases its offset
// (Release, reached through transport::MessageBus::Release), which drops
// the runs and recycles the slabs below it. Only that consumer may
// release, and only what it has finished.

#ifndef PRIVAPPROX_BROKER_TOPIC_H_
#define PRIVAPPROX_BROKER_TOPIC_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "storage/partition_log.h"

namespace privapprox::broker {

// A non-owning view of one stored record: `payload` points into a partition
// slab and is valid until the record's offset is released (Topic::Release).
struct RecordView {
  uint64_t offset = 0;
  int64_t timestamp_ms = 0;
  uint64_t key = 0;
  const uint8_t* payload = nullptr;
  uint32_t payload_len = 0;

  std::span<const uint8_t> bytes() const { return {payload, payload_len}; }
};

// A record to be produced (no offset yet — the topic assigns it on
// append). The payload span (typically arena- or slab-backed) only needs to
// stay valid for the duration of the append call — the topic copies it
// into its own slab.
struct ProduceView {
  uint64_t key = 0;
  std::span<const uint8_t> payload;
  int64_t timestamp_ms = 0;
};

// Per-topic counters used by the throughput/network benchmarks.
struct TopicMetrics {
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

// Storage occupancy across all partitions of a topic: how much payload
// memory the topic holds (spare slabs kept for reuse included), how full the
// live slabs are, how many records are still in memory, and what their run
// index holds. Feeds the metrics registry's broker collector.
struct SlabStats {
  uint64_t slabs = 0;
  uint64_t allocated_bytes = 0;
  uint64_t used_bytes = 0;
  uint64_t retained_records = 0;  // records not yet released
  uint64_t index_runs = 0;        // run entries indexing them
  uint64_t index_bytes = 0;       // run-index capacity, in bytes
};

// Opt-in durable spill: every append additionally lands in a
// storage::PartitionLog at <directory>/p<k> for partition k (one record
// batch per partition run of each append call), and the topic constructor
// replays whatever those logs hold back into the in-memory slabs — so a
// recovered topic serves reads and offsets exactly as if the process had
// never died. Absent (the default), the topic is byte-identical
// to the memory-only topic of previous releases.
struct TopicDurability {
  std::filesystem::path directory;
  storage::PartitionLogOptions log;
};

// privapprox_storage_* metric sources, summed over a topic's (or broker's)
// partition logs. All zero for a non-durable topic.
struct DurableStats {
  uint64_t segments = 0;
  uint64_t bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t recovered_records = 0;
  uint64_t truncated_tails = 0;
};

// The partition a key maps to in a topic with `num_partitions` partitions
// (splitmix hash of the key; counts below 1 clamp to 1, matching the Topic
// constructor). The one partitioning decision: Topic::AppendViews routes by
// it, and the aggregator's join shards are the partitions it places a MID
// in, so the hash is part of the contract between processes.
size_t PartitionForKey(uint64_t key, size_t num_partitions);

class Topic {
 public:
  // Payload slab chunk size. Appends amortize to one heap allocation per
  // chunk of payload bytes; records larger than a chunk get a dedicated
  // slab so payloads are always contiguous.
  static constexpr size_t kSlabChunkBytes = 256 * 1024;
  // Released slabs each partition keeps for reuse; Release frees the rest.
  static constexpr size_t kSpareSlabs = 2;
  // One run-index entry, however many records its run holds.
  static constexpr size_t kRunEntryBytes = 32;

  Topic(std::string name, size_t num_partitions);
  // Durable topic: appends spill through per-partition logs under
  // `durability.directory` and the constructor recovers (replays) whatever
  // a previous incarnation left there. Throws storage::SegmentLogError on
  // unrecoverable on-disk corruption or a directory locked by a live
  // instance.
  Topic(std::string name, size_t num_partitions,
        const TopicDurability& durability);

  const std::string& name() const { return name_; }
  size_t num_partitions() const { return partitions_.size(); }
  bool durable() const { return durable_; }

  // Appends a batch, each record to partition PartitionForKey(key),
  // grouping records by partition so each partition lock is taken once per
  // call. Records of one partition keep their relative order, so the log is
  // byte-identical to appending the batch one record at a time. Payload
  // bytes are copied once from the caller's spans into partition slabs. An
  // empty batch is a no-op.
  void AppendViews(std::span<const ProduceView> records);

  // Pre-commits one contiguous slab run of `payload_bytes` in `partition`.
  // Appends of lane records within that budget then extend one index run
  // and perform no heap allocation (allocation regression test and
  // latency-sensitive producers).
  void Reserve(size_t partition, size_t payload_bytes);

  // Reads up to `max_records` records of `partition` from `offset` on,
  // appending slab-backed views into `out`. Views stay valid until their
  // offsets are released. Stops before the record that would take the
  // payload bytes read past `max_bytes`, but always reads at least one
  // record; metrics() counts only what was read.
  void ReadViews(size_t partition, uint64_t offset, size_t max_records,
                 std::vector<RecordView>& out,
                 size_t max_bytes = SIZE_MAX) const;

  // Next offset to be assigned in `partition` (== current log length).
  uint64_t EndOffset(size_t partition) const;

  TopicMetrics metrics() const;

  // Takes each partition lock briefly; intended for collection at exposition
  // time, not the hot path.
  SlabStats slab_stats() const;

  // In-memory retention, the counterpart of AdvanceWatermark: drops the
  // runs of `partition` below `offset` (clamped to the end), trims the one
  // it cuts, and recycles every slab whose records all lie below it,
  // keeping up to kSpareSlabs for later appends. Every view into the
  // released records dangles from here on, so the caller must own every
  // consumer of the partition and pass their low watermark. Offsets,
  // EndOffset, metrics() and the durable log are unchanged; a read below
  // the released offset starts at it.
  void Release(size_t partition, uint64_t offset);

  // --- Durable-spill surface (no-ops on a non-durable topic) -------------

  // Retention by consumer low-watermark: deletes whole on-disk segments of
  // `partition` whose records all sit below `offset`. Disk only — memory is
  // Release's. Returns segments deleted.
  size_t AdvanceWatermark(size_t partition, uint64_t offset);

  // Forces every partition log to disk regardless of fsync policy.
  void SyncDurable();

  // Takes each partition lock briefly (exposition-time collection).
  DurableStats durable_stats() const;

 private:
  struct Slab {
    std::unique_ptr<uint8_t[]> data;
    size_t used = 0;
    size_t cap = 0;
    // One past the offset of the last record stored here. Set when the
    // next slab opens; Release sets the back slab's before reading it.
    uint64_t end = 0;
  };
  // Records [base, base + count): payload i is the `width` bytes at
  // payload + i * width in one slab, and its key is its first 8 bytes
  // (little-endian) — or, for a one-record run with `key_in_slab`, the 8
  // bytes in front of it.
  struct Run {
    uint64_t base = 0;
    const uint8_t* payload = nullptr;
    int64_t timestamp_ms = 0;
    uint32_t width = 0;
    uint32_t count : 31 = 0;
    uint32_t key_in_slab : 1 = 0;
  };
  static_assert(sizeof(Run) == kRunEntryBytes);
  static constexpr uint32_t kMaxRunRecords = (1u << 31) - 1;
  struct Partition {
    mutable std::mutex mu;
    std::vector<Slab> slabs;  // in record order; back() takes appends
    std::vector<Slab> spares;  // released slabs kept for reuse
    std::vector<Run> runs;     // the retained records [base, end)
    // Durable spill; null on a memory-only topic. `base` starts at the
    // log's base offset at recovery (non-zero when earlier segments were
    // retention-trimmed before the restart) and Release advances it; `end`
    // continues the numbering from there.
    std::unique_ptr<storage::PartitionLog> log;
    uint64_t base = 0;
    uint64_t end = 0;
  };

  // All helpers require the partition lock to be held. AppendToMemory is
  // the slab+index half (also the recovery replay path): it extends the
  // back run or starts the next one. SpillLocked writes the records
  // [first, end) to the partition log as one batch when a log is attached.
  // ForEachRecord calls fn(view) for each record from `offset` on until fn
  // returns false. OpenSlab appends a slab of at least `min_cap` bytes,
  // reusing a spare when one is large enough.
  static void OpenSlab(Partition& partition, size_t min_cap);
  static uint8_t* SlabAlloc(Partition& partition, size_t len);
  static void AppendToMemory(Partition& partition, uint64_t key,
                             std::span<const uint8_t> payload,
                             int64_t timestamp_ms);
  static void SpillLocked(Partition& partition, uint64_t first);
  static RecordView RecordOf(const Run& run, uint64_t i);
  template <typename Fn>
  static void ForEachRecord(const Partition& partition, uint64_t offset,
                            const Fn& fn);

  std::string name_;
  bool durable_ = false;
  std::vector<Partition> partitions_;
  // Lock-free counters: metrics updates sit on the hot produce/consume paths
  // and must not serialize parallel workers.
  mutable std::atomic<uint64_t> records_in_{0};
  mutable std::atomic<uint64_t> records_out_{0};
  mutable std::atomic<uint64_t> bytes_in_{0};
  mutable std::atomic<uint64_t> bytes_out_{0};
};

}  // namespace privapprox::broker

#endif  // PRIVAPPROX_BROKER_TOPIC_H_
