// Allocation-count regression tests for the zero-copy share path.
//
// This binary links the counting allocator (common/alloc_counter.h), which
// replaces global operator new/delete and counts every heap allocation.
//
// Strict zero: after one warm-up pass, the share hot path — arena encode ->
// slab append -> view poll -> view decode — performs no heap allocation at
// all in steady state.
//
// The epoch's per-epoch machinery (pool tasks, per-range lane batches,
// fired results) allocates by design, but only per epoch: the whole-system
// tests bound a warm epoch at fewer than 0.5 allocations per share.
//
// Footprint bounds close the file: what one client of a fleet costs on the
// heap (its slot, its table and rows, its subscriptions), and what a
// hostile announcement, result payload, record batch or segment length can
// make its decoder request.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/alloc_counter.h"
#include "common/arena.h"
#include "common/byte_order.h"
#include "core/query_wire.h"
#include "crypto/chacha20.h"
#include "crypto/message.h"
#include "crypto/xor_cipher.h"
#include "deploy/result_wire.h"
#include "localdb/database.h"
#include "metrics/metrics.h"
#include "proxy/proxy.h"
#include "storage/partition_log.h"
#include "storage/record_batch.h"
#include "system/client_fleet.h"
#include "system/system.h"
#include "transport/inproc_bus.h"
#include "transport/frame.h"
#include "transport/message_bus.h"
#include "transport/tcp_bus.h"
#include "transport/wire.h"

namespace privapprox {
namespace {

constexpr size_t kNumShares = 2;
constexpr size_t kAnswerBits = 11;
constexpr size_t kAnswersPerEpoch = 256;
constexpr size_t kEpochs = 8;

crypto::AnswerMessage MakeMessage() {
  BitVector answer(kAnswerBits);
  answer.Set(3, true);
  answer.Set(7, true);
  return crypto::AnswerMessage{0xABCDEF01ULL, answer};
}

TEST(AllocCounterTest, CountsAllocations) {
  const uint64_t before = AllocCounter::Count();
  std::vector<uint8_t>* v = new std::vector<uint8_t>(1024, 1);
  const uint64_t after = AllocCounter::Count();
  EXPECT_GT(after, before);
  delete v;
}

TEST(AllocRegressionTest, SteadyStateSharePathIsAllocationFree) {
  const crypto::AnswerMessage message = MakeMessage();
  const size_t record_len =
      8 + crypto::AnswerMessage::WireSize(message.answer.size());
  crypto::XorSplitter splitter(kNumShares,
                               crypto::ChaCha20Rng::FromSeed(17, 5));

  // The hot path is pinned over the production transport stack: an
  // InProcessBus over a broker topic, drained by a BusConsumer.
  broker::Broker broker;
  broker::Topic& topic = broker.CreateTopic("answers", 4);
  transport::InProcessBus bus(broker);
  // Budget every partition for the whole run: Reserve pre-commits one
  // contiguous slab run, so every in-budget append extends the partition's
  // one index run and allocates nothing.
  const size_t total_records = kAnswersPerEpoch * kNumShares * (kEpochs + 1);
  for (size_t p = 0; p < topic.num_partitions(); ++p) {
    topic.Reserve(p, total_records * record_len);
  }
  transport::BusConsumer consumer(bus, "answers");

  EpochArena arena;
  std::vector<crypto::ShareView> views(kNumShares);
  std::vector<broker::ProduceView> produce;
  produce.reserve(kAnswersPerEpoch * kNumShares);
  std::vector<broker::RecordView> polled;
  polled.reserve(total_records);
  proxy::Proxy::DecodedShares decoded;
  decoded.shares.reserve(total_records);

  const auto run_epoch = [&]() {
    produce.clear();
    for (size_t i = 0; i < kAnswersPerEpoch; ++i) {
      splitter.SplitMessageInto(message, arena, views);
      for (const crypto::ShareView& view : views) {
        produce.push_back(
            broker::ProduceView{view.message_id, view.bytes(), 100});
      }
    }
    topic.AppendViews(produce);
    polled.clear();
    while (consumer.PollInto(4096, polled) != 0) {
    }
    decoded.Clear();
    proxy::Proxy::DecodeShares(polled, decoded);
    arena.Reset();
  };

  run_epoch();  // warm-up: arena chunk, scratch capacity, RNG staging

  const uint64_t before = AllocCounter::Count();
  for (size_t e = 0; e < kEpochs; ++e) {
    run_epoch();
  }
  const uint64_t after = AllocCounter::Count();
  EXPECT_EQ(after - before, 0u)
      << "share hot path allocated " << (after - before) << " times across "
      << kEpochs << " warm epochs";
  EXPECT_EQ(decoded.shares.size(), kAnswersPerEpoch * kNumShares);
  EXPECT_EQ(decoded.malformed, 0u);
}

core::Query AllocTestQuery(uint64_t id, const std::string& sql,
                           size_t buckets) {
  return core::QueryBuilder()
      .WithId(id)
      .WithSql(sql)
      .WithAnswerFormat(
          core::AnswerFormat::UniformNumeric(0, 100, buckets, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(2000)
      .WithSlideMs(1000)
      .Build();
}

// Whole-system gate: a warm epoch — RunEpoch plus the watermark advance
// that fires its windows — allocates fewer than 0.5 times per share sent,
// and the per-epoch bill is flat: arenas, slabs, forward scratch, join
// tables and window accumulators are reused, so epoch N and epoch N+1 cost
// the same. What remains per epoch (pool tasks, per-range lane batches, one
// accumulator per new window, the fired results) is bounded work, not
// per-share; a reintroduced per-share copy or allocation, or a leaked warm
// structure, shows up here. The aggregator drains one join shard per lane
// partition, so its per-shard scratch (offsets, decode buffers, joiners,
// panes) must be reused across epochs too; runs at 1, 2 and 4 workers so
// every range split and shard schedule does.
void ExpectEpochAllocationsFlatAt(size_t workers, size_t num_queries) {
  system::SystemConfig config;
  config.num_clients = 1024;
  config.num_proxies = kNumShares;
  config.seed = 7;
  config.pipeline.num_worker_threads = workers;
  system::PrivApproxSystem system(config);
  for (size_t i = 0; i < config.num_clients; ++i) {
    auto& db = system.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    db.GetTable("vehicle").Insert(
        500, {localdb::Value(static_cast<double>((i * 13) % 100)),
              localdb::Value(static_cast<double>((i * 7) % 100))});
  }
  core::ExecutionParams params;
  params.sampling_fraction = 1.0;
  params.randomization = {0.9, 0.6};
  system.SubmitQuery(AllocTestQuery(1, "SELECT speed FROM vehicle", 10),
                     params);
  if (num_queries >= 2) {
    // A second concurrent lane: per-query splitters, lane topics, and
    // aggregator lane state must reuse their warm structures just like the
    // first query's. With three queries it is 81 buckets wide — answers
    // past 64 bits — and the third filters on another column, so each
    // client runs three distinct SQL texts every epoch.
    core::ExecutionParams second_params;
    second_params.sampling_fraction = 0.8;
    second_params.randomization = {0.85, 0.5};
    system.SubmitQuery(
        AllocTestQuery(2, "SELECT temperature FROM vehicle",
                       num_queries >= 3 ? 80 : 10),
        second_params);
  }
  if (num_queries >= 3) {
    system.SubmitQuery(
        AllocTestQuery(3, "SELECT speed FROM vehicle WHERE temperature >= 50",
                       10),
        params);
  }

  int64_t now = 1000;
  for (int e = 0; e < 2; ++e) {  // warm-up epochs
    system.RunEpoch(now);
    system.AdvanceWatermark(now);
    now += 1000;
  }
  std::vector<uint64_t> per_epoch;
  uint64_t shares = 0;
  for (int e = 0; e < 4; ++e) {
    const uint64_t before = AllocCounter::Count();
    system::EpochStats stats = system.RunEpoch(now);
    system.AdvanceWatermark(now);
    per_epoch.push_back(AllocCounter::Count() - before);
    ASSERT_GT(stats.shares_sent, 0u);
    shares += stats.shares_sent;
    now += 1000;
  }
  const uint64_t lo = *std::min_element(per_epoch.begin(), per_epoch.end());
  const uint64_t hi = *std::max_element(per_epoch.begin(), per_epoch.end());
  // Warm epochs must cost the same +-5%: the share path reuses arenas and
  // slabs, so any epoch-over-epoch growth means warm state is being dropped
  // and reallocated (or a per-share copy crept back in).
  EXPECT_LE(hi - lo, lo / 20 + 64)
      << "per-epoch allocations drifted: min=" << lo << " max=" << hi;
  uint64_t total = 0;
  for (const uint64_t n : per_epoch) {
    total += n;
  }
  const double per_share =
      static_cast<double>(total) / static_cast<double>(shares);
  EXPECT_LT(per_share, 0.5) << total << " allocations for " << shares
                            << " shares";
}

void ExpectEpochAllocationsFlat(size_t num_queries) {
  for (const size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectEpochAllocationsFlatAt(workers, num_queries);
  }
}

TEST(AllocRegressionTest, EpochAllocationsStayFlat) {
  ExpectEpochAllocationsFlat(/*num_queries=*/1);
}

TEST(AllocRegressionTest, TwoQueryEpochAllocationsStayFlat) {
  ExpectEpochAllocationsFlat(/*num_queries=*/2);
}

TEST(AllocRegressionTest, WideThreeSqlEpochAllocationsStayFlat) {
  ExpectEpochAllocationsFlat(/*num_queries=*/3);
}

// Heap cost of one client: building a 1,000-client fleet, giving every
// client a table with 4 rows, and delivering three announcements (11, 81
// and 11 buckets) through an InProcessBus. The topics and announcements
// exist before counting starts. Clients share each cohort's compiled query
// and keep only their RNG streams per subscription, so a client costs its
// rows and little else; a per-client copy of a query, a plan or an answer
// format, or a per-client heap object, breaks the bound.
TEST(AllocRegressionTest, FleetFootprintPerClient) {
  constexpr size_t kClients = 1000;
  metrics::Registry registry;
  broker::Broker broker;
  transport::InProcessBus bus(broker);
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  const core::Query queries[] = {
      AllocTestQuery(1, "SELECT speed FROM vehicle", 10),
      AllocTestQuery(2, "SELECT temperature FROM vehicle", 80),
      AllocTestQuery(3, "SELECT speed FROM vehicle WHERE temperature >= 50",
                     10)};
  std::vector<std::string> topics;
  for (const core::Query& query : queries) {
    const std::vector<uint8_t> bytes =
        core::SerializeAnnouncement(core::QueryAnnouncement{query, params});
    for (size_t j = 0; j < kNumShares; ++j) {
      topics.push_back("announce.q" + std::to_string(query.query_id) + ".p" +
                       std::to_string(j));
      bus.EnsureTopic(topics.back(), 1);
      const broker::ProduceView record{query.query_id, bytes, 0};
      bus.Produce(topics.back(), {&record, 1});
    }
  }

  const uint64_t bytes_before = AllocCounter::Bytes();
  const uint64_t allocs_before = AllocCounter::Count();
  system::ClientFleet fleet(kClients, kNumShares, /*seed=*/7,
                            /*invert_answers=*/false, registry);
  for (size_t i = 0; i < kClients; ++i) {
    localdb::Database& db = fleet.client(i).database();
    db.CreateTable("vehicle", {"speed", "temperature"});
    for (int64_t row = 0; row < 4; ++row) {
      db.GetTable("vehicle").Insert(
          500 + row, {localdb::Value(static_cast<double>((i + row) % 100)),
                      localdb::Value(static_cast<double>((i * 7) % 100))});
    }
  }
  for (size_t t = 0; t < topics.size(); ++t) {
    fleet.DeliverAnnouncement(t % kNumShares, bus, topics[t]);
  }
  const uint64_t bytes = AllocCounter::Bytes() - bytes_before;
  const uint64_t allocs = AllocCounter::Count() - allocs_before;
  ASSERT_EQ(fleet.client(kClients - 1).num_subscriptions(), 3u);
  RecordProperty("bytes_per_client", std::to_string(bytes / kClients));
  RecordProperty("allocs_per_client", std::to_string(allocs / kClients));
  EXPECT_LE(bytes, 4096 * kClients)
      << static_cast<double>(bytes) / kClients << " bytes per client";
  EXPECT_LE(allocs, 12 * kClients)
      << static_cast<double>(allocs) / kClients << " allocations per client";
}

// Heap bytes in use by the allocator, across its arenas; nullopt when
// mallinfo2 does not see this process's allocator (a sanitizer's).
std::optional<size_t> HeapInUse() {
  const size_t before = mallinfo2().uordblks;
  std::vector<std::unique_ptr<std::array<uint8_t, 64>>> probe;
  for (int i = 0; i < 256; ++i) {
    probe.push_back(std::make_unique<std::array<uint8_t, 64>>());
  }
  const size_t after = mallinfo2().uordblks;
  if (after < before + 256 * 64) {
    return std::nullopt;
  }
  probe.clear();
  return mallinfo2().uordblks;
}

// The heap a client's database keeps after perfbench's feed, per client:
// every epoch one two-column reading goes into "vehicle" and readings
// older than `window_epochs` are evicted. Measured as the allocator's
// in-use delta over a fleet of databases, so a freed temporary (the Row a
// reading arrives in) does not count, while the row buffer, the table slot
// and allocator overhead do.
std::optional<double> DatabaseKeptBytes(int64_t window_epochs) {
  constexpr size_t kClients = 4000;
  constexpr int64_t kPeriodMs = 1000;
  std::vector<localdb::Database> dbs(kClients);
  const std::optional<size_t> before = HeapInUse();
  if (!before.has_value()) {
    return std::nullopt;
  }
  for (int64_t epoch = 1; epoch <= 12; ++epoch) {
    const int64_t now = epoch * kPeriodMs;
    for (size_t i = 0; i < kClients; ++i) {
      localdb::Database& db = dbs[i];
      if (!db.HasTable("vehicle")) {
        db.CreateTable("vehicle", {"speed", "load"});
      }
      db.GetTable("vehicle").Insert(
          now - kPeriodMs / 2,
          {localdb::Value(static_cast<double>((i + epoch) % 100)),
           localdb::Value(static_cast<double>(i % 100))});
      db.EvictBefore(now - window_epochs * kPeriodMs);
    }
  }
  EXPECT_EQ(dbs.back().GetTable("vehicle").num_rows(),
            static_cast<size_t>(window_epochs));
  return static_cast<double>(mallinfo2().uordblks - *before) / kClients;
}

// A client's local table holds its readings at their natural width (a
// timestamp and 16 bytes per cell, in one buffer) and shares its schema, so
// the database keeps 416 -> ~160 bytes for one reading and 896 -> ~400 for
// four.
TEST(AllocRegressionTest, ClientDatabaseKeepsItsReadings) {
  const std::optional<double> one = DatabaseKeptBytes(1);
  const std::optional<double> four = DatabaseKeptBytes(4);
  if (!one.has_value() || !four.has_value()) {
    GTEST_SKIP() << "mallinfo2 does not track this allocator";
  }
  RecordProperty("one_reading_bytes", std::to_string(*one));
  RecordProperty("four_readings_bytes", std::to_string(*four));
  EXPECT_LE(*one, 200.0) << "bytes per client, one reading";
  EXPECT_LE(*four, 450.0) << "bytes per client, four readings";
}

// An announcement whose bucket count claims 2^20 buckets, the most the
// decoder's sanity cap admits, with only a few bytes behind it. Decoding
// it must be refused before the count sizes anything: the requested bytes
// stay under a fixed cap instead of the 48 MB of Bucket slots the count
// asks for.
TEST(AllocRegressionTest, HostileBucketCountAllocatesLittle) {
  const core::Query query = AllocTestQuery(1, "SELECT speed FROM vehicle", 10);
  std::vector<uint8_t> bytes = core::SerializeAnnouncement(
      core::QueryAnnouncement{query, core::ExecutionParams{}});
  // magic, version, three ids, the SQL string, three durations.
  const size_t count_at = 4 + 2 + 3 * 8 + 4 + query.sql.size() + 3 * 8;
  ASSERT_EQ(bytes[count_at], query.answer_format.num_buckets());
  for (int i = 0; i < 4; ++i) {
    bytes[count_at + i] = static_cast<uint8_t>((1u << 20) >> (8 * i));
  }
  const uint64_t before = AllocCounter::Bytes();
  EXPECT_THROW(core::DeserializeAnnouncement(bytes), core::WireError);
  EXPECT_LT(AllocCounter::Bytes() - before, 64u * 1024);
}

// A result payload whose counts claim far more than its bytes hold: 100,000
// results with nothing behind them, or one result claiming 2^20 buckets.
// DeserializeResults must refuse each count before it sizes anything by
// it, instead of requesting megabytes of result and bucket slots.
TEST(AllocRegressionTest, HostileResultCountAllocatesLittle) {
  std::vector<uint8_t> many_results;
  transport::PutU32(100000, many_results);
  aggregator::WindowedResult result;
  result.result.buckets.resize(1);
  std::vector<uint8_t> many_buckets = deploy::SerializeResults(
      std::vector<aggregator::WindowedResult>{result});
  const size_t bucket_count_at = 4 + 8 * 8;  // result count, eight u64s
  ASSERT_EQ(many_buckets[bucket_count_at], 1u);
  for (int i = 0; i < 4; ++i) {
    many_buckets[bucket_count_at + i] =
        static_cast<uint8_t>((1u << 20) >> (8 * i));
  }
  for (const std::vector<uint8_t>* bytes : {&many_results, &many_buckets}) {
    const uint64_t before = AllocCounter::Bytes();
    EXPECT_THROW(deploy::DeserializeResults(*bytes), std::invalid_argument);
    EXPECT_LT(AllocCounter::Bytes() - before, 64u * 1024);
  }
}

// A note_lost_mids payload whose MID count claims four billion MIDs and
// carries one: the aggregator node must refuse the count before it sizes
// anything by it (any peer on the daemon network can send verbs).
TEST(AllocRegressionTest, HostileLostMidCountAllocatesLittle) {
  broker::Broker broker;
  transport::InProcessBus bus(broker);
  metrics::Registry registry;
  aggregator::AggregatorConfig config;
  config.population = 100;
  config.track_fault_losses = true;
  system::AggregatorNode node(config, registry, bus);
  std::vector<uint8_t> payload;
  transport::PutU64(1, payload);     // QID
  transport::PutU64(1000, payload);  // now
  transport::PutU32(0xFFFFFFFFu, payload);
  transport::PutU64(7, payload);
  const uint64_t before = AllocCounter::Bytes();
  EXPECT_THROW(node.HandleControl("note_lost_mids", payload),
               std::invalid_argument);
  EXPECT_LT(AllocCounter::Bytes() - before, 64u * 1024);
}

// A log whose newest segment ends in a torn 16-byte frame header claiming
// a 60 MiB batch. Recovery truncates it like any torn tail, and bounds the
// length by the bytes left in the segment before sizing a read buffer on
// it: opening the log allocates far less than the claim.
TEST(AllocRegressionTest, HostileSegmentLengthAllocatesLittle) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("privapprox_alloc_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::vector<uint8_t> payload(32, 0x5A);
  {
    storage::PartitionLog log(dir, storage::PartitionLogOptions{});
    for (uint64_t i = 0; i < 3; ++i) {
      log.Append(i, 0, payload);
    }
  }
  const std::filesystem::path segment = dir / "seg-00000000000000000000.log";
  const uint64_t valid = std::filesystem::file_size(segment);
  {
    std::vector<uint8_t> torn(16, 0xEE);
    StoreLe<uint32_t>(torn.data(), 60u << 20);
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(torn.data()),
              static_cast<std::streamsize>(torn.size()));
  }
  const uint64_t before = AllocCounter::Bytes();
  {
    storage::PartitionLog log(dir, storage::PartitionLogOptions{});
    EXPECT_EQ(log.end_offset(), 3u);
    EXPECT_EQ(log.stats().truncated_tails, 1u);
  }
  EXPECT_LT(AllocCounter::Bytes() - before, 1u << 20);
  EXPECT_EQ(std::filesystem::file_size(segment), valid);
  std::filesystem::remove_all(dir);
}

// Batches whose count, width or length column claims more than the bytes
// behind it. Built from a valid one-record batch of 22-byte lane shares
// (fixed width, key in payload) and a valid two-record mixed batch.
std::vector<std::vector<uint8_t>> HostileBatches() {
  const std::vector<uint8_t> share(22, 0x11);
  const uint64_t mid = LoadLe<uint64_t>(share.data());
  std::vector<uint8_t> fixed;
  storage::AppendRecordBatch(
      1, [&](size_t) { return storage::BatchRecord{mid, 0, share}; }, fixed);
  const std::vector<uint8_t> a(3, 1), b(5, 2);
  std::vector<uint8_t> mixed;
  storage::AppendRecordBatch(
      2,
      [&](size_t i) {
        return storage::BatchRecord{i, 0, i == 0 ? std::span(a) : std::span(b)};
      },
      mixed);
  constexpr size_t kCountAt = 2;
  constexpr size_t kWidthAt = storage::kRecordBatchHeaderBytes;
  // mixed: header, then two u64 keys, then the u32 lengths.
  constexpr size_t kLengthAt = storage::kRecordBatchHeaderBytes + 16;
  std::vector<std::vector<uint8_t>> hostile(3);
  hostile[0] = fixed;
  StoreLe<uint32_t>(hostile[0].data() + kCountAt, UINT32_MAX);
  hostile[1] = fixed;
  StoreLe<uint32_t>(hostile[1].data() + kWidthAt, UINT32_MAX - 7);
  hostile[2] = mixed;
  StoreLe<uint32_t>(hostile[2].data() + kLengthAt + 4, 1u << 30);
  return hostile;
}

// The server refuses each such Produce with an error response before the
// batch sizes anything, and appends nothing.
TEST(AllocRegressionTest, HostileProduceRequestAllocatesLittle) {
  broker::Broker broker;
  broker.EnsureTopic("t", 1);
  std::vector<uint8_t> response;
  response.reserve(4096);
  for (const std::vector<uint8_t>& batch : HostileBatches()) {
    std::vector<uint8_t> request = {
        static_cast<uint8_t>(transport::WireOp::kProduce)};
    transport::PutString("t", request);
    request.insert(request.end(), batch.begin(), batch.end());
    response.clear();
    const uint64_t before = AllocCounter::Bytes();
    transport::HandleRequest(&broker, {}, request, response);
    EXPECT_LT(AllocCounter::Bytes() - before, 64u * 1024);
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(response[0], transport::kWireError);
  }
  EXPECT_EQ(broker.GetTopic("t").EndOffset(0), 0u);
}

// A loopback peer that answers each request frame with the next canned
// response body, so a TcpBusClient can be fed responses no server sends.
// Allocation-free while it serves (its frames are built up front).
class CannedServer {
 public:
  explicit CannedServer(const std::vector<std::vector<uint8_t>>& bodies) {
    for (const std::vector<uint8_t>& body : bodies) {
      frames_.emplace_back();
      transport::EncodeFrame(body, frames_.back());
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      throw std::runtime_error("CannedServer: cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~CannedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  bool ReadExactly(int fd, uint8_t* p, size_t n) {
    while (n > 0) {
      const ssize_t got = ::read(fd, p, n);
      if (got <= 0) {
        return false;
      }
      p += got;
      n -= static_cast<size_t>(got);
    }
    return true;
  }

  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::array<uint8_t, 4096> request;
    for (const std::vector<uint8_t>& frame : frames_) {
      if (!ReadExactly(fd, request.data(), transport::kFrameHeaderBytes)) {
        break;
      }
      const uint32_t len = LoadLe<uint32_t>(request.data());
      if (len > request.size() || !ReadExactly(fd, request.data(), len) ||
          ::write(fd, frame.data(), frame.size()) !=
              static_cast<ssize_t>(frame.size())) {
        break;
      }
    }
    ::close(fd);
  }

  std::vector<std::vector<uint8_t>> frames_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

// The client refuses each such Poll response with an exception, before the
// batch sizes a view or a slab, and hands out no view.
TEST(AllocRegressionTest, HostilePollResponseAllocatesLittle) {
  auto poll_response = [](const std::vector<uint8_t>& batch) {
    std::vector<uint8_t> body = {transport::kWireOk};
    transport::PutU64(0, body);
    body.insert(body.end(), batch.begin(), batch.end());
    return body;
  };
  std::vector<uint8_t> empty;
  storage::AppendRecordBatch(
      0, [](size_t) { return storage::BatchRecord{}; }, empty);
  std::vector<std::vector<uint8_t>> bodies = {poll_response(empty)};
  for (const std::vector<uint8_t>& batch : HostileBatches()) {
    bodies.push_back(poll_response(batch));
  }
  CannedServer server(bodies);
  {
    transport::TcpBusClientConfig config;
    config.port = server.port();
    transport::TcpBusClient client(config);
    std::vector<broker::RecordView> out;
    out.reserve(16);
    // The first, valid response warms the connection and its buffers.
    EXPECT_EQ(client.Poll("t", 0, 0, 16, out), 0u);
    for (size_t i = 1; i < bodies.size(); ++i) {
      const uint64_t before = AllocCounter::Bytes();
      EXPECT_THROW(client.Poll("t", 0, 0, 16, out), std::invalid_argument);
      EXPECT_LT(AllocCounter::Bytes() - before, 64u * 1024);
      EXPECT_TRUE(out.empty());
    }
  }
}

}  // namespace
}  // namespace privapprox
