// The nodes both deployments run (system/proxy_node.h,
// system/aggregator_node.h), here wired the in-process way: two proxy nodes
// and an aggregator node over one broker, driven by an EpochDriver, with
// the aggregator's verbs in the test's reach. A verb parses its whole
// payload before it changes anything, because any peer on the daemon
// network can send one.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "broker/broker.h"
#include "core/query.h"
#include "core/query_wire.h"
#include "deploy/result_wire.h"
#include "localdb/database.h"
#include "storage/partition_log.h"
#include "system/aggregator_node.h"
#include "system/epoch_driver.h"
#include "system/proxy_node.h"
#include "transport/inproc_bus.h"
#include "transport/wire.h"

namespace privapprox::system {
namespace {

constexpr size_t kClients = 60;
constexpr size_t kProxies = 2;

core::Query SpeedQuery() {
  return core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(1000)
      .WithSlideMs(1000)
      .Build();
}

core::ExecutionParams Params(double s) {
  core::ExecutionParams params;
  params.sampling_fraction = s;
  params.randomization = {0.9, 0.6};
  return params;
}

std::vector<uint8_t> Announcement(double s) {
  return core::SerializeAnnouncement(
      core::QueryAnnouncement{SpeedQuery(), Params(s)});
}

// note_lost_mids bytes: u64 QID, u64 now, u32 count, then `mids`.
std::vector<uint8_t> LostMids(int64_t now_ms, std::vector<uint64_t> mids) {
  std::vector<uint8_t> payload;
  transport::PutU64(SpeedQuery().query_id, payload);
  transport::PutU64(static_cast<uint64_t>(now_ms), payload);
  transport::PutU32(static_cast<uint32_t>(mids.size()), payload);
  for (const uint64_t mid : mids) {
    transport::PutU64(mid, payload);
  }
  return payload;
}

class MiniDeployment {
 public:
  explicit MiniDeployment(const std::string& journal_dir = "") {
    EpochDriverConfig config;
    config.num_clients = kClients;
    config.seed = 3;
    for (size_t j = 0; j < kProxies; ++j) {
      proxy::ProxyConfig proxy_config;
      proxy_config.proxy_index = j;
      proxies_.push_back(std::make_unique<ProxyNode>(proxy_config, registry_,
                                                     bus_, broker_));
      config.proxies.push_back(NodeEndpoint{
          &bus_, [node = proxies_.back().get()](
                     const std::string& verb,
                     std::span<const uint8_t> payload) {
            return node->HandleControl(verb, payload);
          }});
    }
    aggregator::AggregatorConfig agg_config;
    agg_config.num_proxies = kProxies;
    agg_config.population = kClients;
    agg_config.track_fault_losses = true;
    std::unique_ptr<storage::PartitionLog> journal;
    if (!journal_dir.empty()) {
      journal = std::make_unique<storage::PartitionLog>(
          journal_dir, storage::PartitionLogOptions{});
    }
    aggregator_ = std::make_unique<AggregatorNode>(agg_config, registry_,
                                                   bus_, std::move(journal));
    config.aggregator = [this](const std::string& verb,
                               std::span<const uint8_t> payload) {
      return Control(verb, payload);
    };
    driver_ = std::make_unique<EpochDriver>(std::move(config), registry_);
    for (size_t i = 0; i < kClients; ++i) {
      localdb::Database& db = driver_->fleet().client(i).database();
      db.CreateTable("vehicle", {"speed"});
      db.GetTable("vehicle").Insert(
          500, {localdb::Value(static_cast<double>((i * 7) % 100))});
    }
    driver_->SubmitQuery(SpeedQuery(), Params(0.9));
  }

  std::vector<uint8_t> Control(const std::string& verb,
                               std::span<const uint8_t> payload) {
    return aggregator_->HandleControl(verb, payload);
  }
  void RunEpoch(int64_t now_ms) { driver_->RunEpoch(now_ms); }
  std::vector<uint8_t> FlushedResults() {
    driver_->Flush();
    return deploy::SerializeResults(driver_->TakeResults());
  }

 private:
  metrics::Registry registry_;
  broker::Broker broker_;
  transport::InProcessBus bus_{broker_};
  std::vector<std::unique_ptr<ProxyNode>> proxies_;
  std::unique_ptr<AggregatorNode> aggregator_;
  std::unique_ptr<EpochDriver> driver_;
};

// Every truncation of a valid update_params or note_lost_mids payload, and
// a MID count that disagrees with the MIDs that follow, is refused; the
// node journals nothing and its results equal those of a node that never
// saw the verbs. The valid payloads do change the results, so the
// comparison can see a change.
TEST(AggregatorNodeTest, TruncatedPayloadsThrowAndChangeNothing) {
  static std::atomic<int> counter{0};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("privapprox_node_test_" + std::to_string(::getpid()) + "_" +
       std::to_string(counter++));
  std::filesystem::remove_all(dir);

  MiniDeployment reference;
  reference.RunEpoch(1000);
  reference.RunEpoch(2000);
  const std::vector<uint8_t> want = reference.FlushedResults();
  ASSERT_FALSE(want.empty());

  const std::vector<uint8_t> update = Announcement(0.6);
  const std::vector<uint8_t> lost = LostMids(1000, {11, 12, 13});
  {
    MiniDeployment hit(dir.string());
    hit.RunEpoch(1000);
    for (const size_t len : {size_t{0}, size_t{1}, update.size() / 2,
                             update.size() - 1}) {
      EXPECT_ANY_THROW(hit.Control(
          "update_params", std::span<const uint8_t>(update).first(len)))
          << len;
    }
    for (const size_t len :
         {size_t{0}, size_t{8}, size_t{19}, lost.size() - 8, lost.size() - 1}) {
      EXPECT_THROW(hit.Control("note_lost_mids",
                               std::span<const uint8_t>(lost).first(len)),
                   std::invalid_argument)
          << len;
    }
    std::vector<uint8_t> trailing = lost;
    trailing.push_back(0);
    EXPECT_THROW(hit.Control("note_lost_mids", trailing),
                 std::invalid_argument);
    hit.RunEpoch(2000);
    EXPECT_EQ(hit.FlushedResults(), want);
    const std::vector<uint8_t> snapshot = hit.Control("snapshot_offsets", {});
    const std::string text(snapshot.begin(), snapshot.end());
    EXPECT_NE(text.find("journal records=1 "), std::string::npos) << text;
  }
  std::filesystem::remove_all(dir);

  for (const bool update_params : {true, false}) {
    MiniDeployment valid;
    valid.RunEpoch(1000);
    if (update_params) {
      valid.Control("update_params", update);
    } else {
      valid.Control("note_lost_mids", lost);
    }
    valid.RunEpoch(2000);
    EXPECT_NE(valid.FlushedResults(), want) << update_params;
  }
}

}  // namespace
}  // namespace privapprox::system
