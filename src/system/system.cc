#include "system/system.h"

#include "common/simd_dispatch.h"

#include <algorithm>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

namespace privapprox::system {

PrivApproxSystem::PrivApproxSystem(SystemConfig config)
    : config_(std::move(config)),
      timeline_(config_.metrics.timeline),
      historical_rng_(config_.seed ^ 0xA5A5A5A5ULL) {
  if (config_.num_clients == 0) {
    throw std::invalid_argument("PrivApproxSystem: need >= 1 client");
  }
  if (config_.num_proxies < 2) {
    throw std::invalid_argument("PrivApproxSystem: need >= 2 proxies");
  }

  // Durability must precede every topic: the proxies below create theirs in
  // their constructors, and a recovered topic must replay before anything
  // attaches to it.
  if (!config_.broker.data_dir.empty()) {
    broker_.EnableDurability(
        {config_.broker.data_dir, config_.broker.log});
    broker_.RecoverTopics();
  }

  // The crypto hot path's SIMD tier, decided once per process
  // (PRIVAPPROX_SIMD override; common/simd_dispatch.h) — surfaced so bench
  // artifacts and scrapes record which kernels produced the numbers.
  registry_
      .GetGauge("privapprox_simd_isa",
                "Active SIMD dispatch tier for the ChaCha20/XOR hot path "
                "(1 = the labeled ISA is active)",
                {{"isa", simd::IsaName(simd::ActiveIsa())}})
      .Set(1);

  const size_t threads =
      config_.pipeline.num_worker_threads != 0
          ? config_.pipeline.num_worker_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  pool_ = std::make_unique<ThreadPool>(threads);

  EpochDriverConfig driver_config;
  driver_config.num_clients = config_.num_clients;
  driver_config.seed = config_.seed;
  driver_config.invert_answers = config_.invert_answers;
  driver_config.budget = config_.budget;
  driver_config.pool = pool_.get();
  driver_config.timeline = &timeline_;
  for (size_t i = 0; i < config_.num_proxies; ++i) {
    driver_config.proxies.push_back(AddProxyNode(i));
  }
  if (config_.fault.has_value()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(*config_.fault, registry_);
    driver_config.injector = injector_.get();
  }

  // The aggregator exists from construction; queries add lanes to it as
  // they are submitted.
  aggregator::AggregatorConfig agg_config;
  agg_config.num_proxies = config_.num_proxies;
  agg_config.population = config_.num_clients;
  agg_config.confidence = config_.confidence;
  agg_config.answers_inverted = config_.invert_answers;
  agg_config.pool = pool_.get();
  agg_config.track_fault_losses = injector_ != nullptr;
  aggregator_node_ =
      std::make_unique<AggregatorNode>(agg_config, registry_, bus_);
  if (config_.historical.enabled) {
    historical_ = &broker_.EnsureTopic("historical", 1);
    aggregator().set_answer_tap(
        [topic = historical_](std::span<const broker::ProduceView> answers) {
          topic->AppendViews(answers);
        });
  }
  driver_config.aggregator = [node = aggregator_node_.get()](
                                 const std::string& verb,
                                 std::span<const uint8_t> payload) {
    return node->HandleControl(verb, payload);
  };

  broker::AddBrokerCollector(registry_, broker_);
  driver_ = std::make_unique<EpochDriver>(std::move(driver_config), registry_);
}

PrivApproxSystem::~PrivApproxSystem() = default;

NodeEndpoint PrivApproxSystem::AddProxyNode(size_t index) {
  proxy::ProxyConfig proxy_config;
  proxy_config.proxy_index = index;
  proxy_config.num_partitions = 4;
  proxy_nodes_.push_back(
      std::make_unique<ProxyNode>(proxy_config, registry_, bus_, broker_));
  return NodeEndpoint{
      &bus_, [node = proxy_nodes_.back().get()](
                 const std::string& verb, std::span<const uint8_t> payload) {
        return node->HandleControl(verb, payload);
      }};
}

core::ExecutionParams PrivApproxSystem::SubmitQuery(
    const core::Query& query, const core::QueryBudget& budget,
    double expected_yes_fraction) {
  const core::BudgetInitializer initializer;
  const core::ExecutionParams params = initializer.Convert(
      budget,
      core::PopulationInfo{config_.num_clients, expected_yes_fraction});
  return SubmitQuery(query, params);
}

EpochStats PrivApproxSystem::RunEpoch(int64_t now_ms) {
  const uint64_t malformed_before = aggregator().malformed_dropped();
  EpochStats stats = driver_->RunEpoch(now_ms);
  stats.malformed_dropped = aggregator().malformed_dropped() - malformed_before;
  return stats;
}

uint64_t PrivApproxSystem::ClientToProxyBytes() const {
  uint64_t bytes = 0;
  for (const auto& node : proxy_nodes_) {
    for (const uint64_t qid : driver_->query_ids()) {
      bytes +=
          broker_.GetTopic(node->proxy().lane_in_topic(qid)).metrics().bytes_in;
    }
  }
  return bytes;
}

core::QueryResult PrivApproxSystem::RunHistorical(
    uint64_t query_id, int64_t from_ms, int64_t to_ms,
    const aggregator::BatchQueryBudget& budget) {
  if (historical_ == nullptr) {
    throw std::logic_error(
        "PrivApproxSystem::RunHistorical: historical store disabled");
  }
  const auto it = driver_->queries().find(query_id);
  if (it == driver_->queries().end()) {
    throw std::invalid_argument(
        "PrivApproxSystem::RunHistorical: unknown query id");
  }
  const EpochDriver::ActiveQuery& active = it->second;
  const aggregator::HistoricalAnalytics analytics(
      *historical_, query_id, active.query.answer_format.num_buckets(),
      active.params, config_.num_clients, config_.confidence);
  return analytics.Run(from_ms, to_ms, budget, historical_rng_);
}

}  // namespace privapprox::system
