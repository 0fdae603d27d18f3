// The PR's acceptance criterion: a 2-proxy, 1-aggregator deployment over
// real loopback TCP sockets produces bit-identical query results to the
// in-process run — including per-query under the multi-query runtime.
//
// The daemons run as in-process objects (each TcpBusServer owns its epoll
// thread), but every byte between fleet, proxies, and aggregator crosses a
// real socket: shares are produced over the wire into proxy lane topics,
// the aggregator joins by polling those topics through TcpBusClients, and
// results come back serialized. The reference run is a plain
// PrivApproxSystem (worker pool) over the same seed and databases;
// comparison is on result_wire bytes, where every double is its raw
// IEEE-754 bit pattern.

// Durability: a non-empty PRIVAPPROX_TEST_DURABILITY environment variable
// (an fsync policy name — CI uses "always") reruns every deployment in this
// file with durable daemons on scratch data dirs, proving the spill layer
// changes no result bytes. The restart tests at the bottom go further: they
// destroy and recreate one daemon mid-epoch — same port, same data dir —
// and require the recovered deployment to converge to the uninterrupted
// run's exact bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <random>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/query.h"
#include "core/query_wire.h"
#include "deploy/aggregator_daemon.h"
#include "deploy/fleet_driver.h"
#include "deploy/proxy_daemon.h"
#include "deploy/result_wire.h"
#include "localdb/database.h"
#include "storage/partition_log.h"
#include "system/system.h"
#include "transport/tcp_bus.h"
#include "transport/wire.h"

namespace privapprox::deploy {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    std::random_device rd;
    path_ = fs::temp_directory_path() /
            ("privapprox_e2e_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++) + "_" + std::to_string(rd()));
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// The CI durability leg: PRIVAPPROX_TEST_DURABILITY=<fsync policy> makes
// every deployment in this file durable. Empty/unset = memory-only
// (the default tier-1 run).
storage::FsyncPolicy EnvFsyncPolicy(bool& enabled) {
  const char* env = std::getenv("PRIVAPPROX_TEST_DURABILITY");
  enabled = env != nullptr && *env != '\0';
  return enabled ? storage::ParseFsyncPolicy(env)
                 : storage::FsyncPolicy::kNever;
}

// Which daemon (if any) a deployment kill-and-restarts, and when.
struct RestartSpec {
  enum Target { kNone, kProxy0, kAggregator };
  Target target = kNone;
  size_t epoch = 1;  // restart fires after this epoch's shares are produced
};

constexpr size_t kClients = 120;
constexpr size_t kProxies = 2;
constexpr uint64_t kSeed = 42;
constexpr size_t kEpochs = 3;

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

core::Query FareQuery() {
  return core::QueryBuilder()
      .WithId(2)
      .WithSql("SELECT fare FROM vehicle")
      .WithAnswerFormat(core::AnswerFormat::UniformNumeric(0, 50, 5, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(2000)
      .WithSlideMs(2000)
      .Build();
}

core::ExecutionParams RandomizedParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.9;
  params.randomization = {0.85, 0.5};
  return params;
}

// An UpdateParams call made right before epoch `epoch`.
struct ParamsUpdate {
  size_t epoch = 1;
  uint64_t query_id = 0;
  core::ExecutionParams params;
};

ParamsUpdate RetuneSpeedBeforeEpoch1() {
  ParamsUpdate update;
  update.query_id = SpeedQuery().query_id;
  update.params.sampling_fraction = 0.7;
  update.params.randomization = {0.9, 0.6};
  return update;
}

void FillDatabase(localdb::Database& db, size_t client_index) {
  db.CreateTable("vehicle", {"speed", "fare"});
  db.GetTable("vehicle").Insert(
      500, {localdb::Value(static_cast<double>((client_index * 7) % 100)),
            localdb::Value(static_cast<double>((client_index * 3) % 50))});
}

// What a socket deployment's processes export at the end of a run, and
// the shares its proxies reported forwarded.
struct DeploymentMetrics {
  std::vector<std::string> proxyds;  // one exposition per proxy daemon
  std::string aggregatord;
  std::string fleet;
  uint64_t shares_forwarded = 0;  // summed FleetEpochStats
};

// One full socket deployment: 2 proxy daemons + 1 aggregator daemon on
// ephemeral loopback ports, driven by a FleetDriver. Returns the results
// stream after `kEpochs` epochs and a flush; `metrics`, when set, receives
// every process's exposition.
//
// `force_durable` makes the deployment durable even without the env var
// (the restart tests need the disk state). With a restart spec, the chosen
// daemon is destroyed and recreated — same port, same data dir — from the
// after-produce seam of the spec's epoch, exactly where the chaos CI job
// lands its kill -9. With an update, the driver re-tunes that query right
// before the update's epoch.
std::vector<aggregator::WindowedResult> RunSocketDeployment(
    const std::vector<core::Query>& queries,
    RestartSpec restart = RestartSpec{}, bool force_durable = false,
    DeploymentMetrics* metrics = nullptr,
    const std::optional<ParamsUpdate>& update = std::nullopt) {
  bool durable_env = false;
  const storage::FsyncPolicy env_policy = EnvFsyncPolicy(durable_env);
  const bool durable = durable_env || force_durable;
  TempDir data_root;
  storage::PartitionLogOptions log_options;
  log_options.fsync =
      durable_env ? env_policy : storage::FsyncPolicy::kAlways;

  std::vector<std::unique_ptr<ProxyDaemon>> proxyds;
  std::vector<ProxyDaemonConfig> proxy_configs;
  std::vector<Endpoint> proxy_endpoints;
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig config;
    config.proxy_index = j;
    if (durable) {
      config.data_dir =
          (data_root.path() / ("proxyd" + std::to_string(j))).string();
      config.log = log_options;
    }
    proxyds.push_back(std::make_unique<ProxyDaemon>(config));
    proxyds.back()->Start();
    // Pin the bound port so a restarted daemon comes back at the same
    // endpoint the fleet and aggregator dialed.
    config.port = proxyds.back()->port();
    proxy_configs.push_back(config);
    proxy_endpoints.push_back(Endpoint{"127.0.0.1", proxyds.back()->port()});
  }
  AggregatorDaemonConfig agg_config;
  agg_config.proxies = proxy_endpoints;
  agg_config.population = kClients;
  if (durable) {
    agg_config.data_dir = (data_root.path() / "aggregatord").string();
    agg_config.log = log_options;
  }
  auto aggregatord = std::make_unique<AggregatorDaemon>(agg_config);
  aggregatord->Start();
  agg_config.port = aggregatord->port();

  FleetDriverConfig fleet_config;
  fleet_config.num_clients = kClients;
  fleet_config.seed = kSeed;
  fleet_config.proxies = proxy_endpoints;
  fleet_config.aggregator = Endpoint{"127.0.0.1", aggregatord->port()};

  size_t current_epoch = 0;
  bool restarted = false;
  if (restart.target != RestartSpec::kNone) {
    // The restarted daemon costs at most one failed control RPC per
    // poisoned connection; retries re-dial.
    fleet_config.control_retries = 3;
    fleet_config.after_produce_hook = [&] {
      if (restarted || current_epoch != restart.epoch) {
        return;
      }
      restarted = true;
      if (restart.target == RestartSpec::kProxy0) {
        proxyds[0].reset();
        proxyds[0] = std::make_unique<ProxyDaemon>(proxy_configs[0]);
        proxyds[0]->Start();
        ASSERT_EQ(proxyds[0]->port(), proxy_configs[0].port);
      } else {
        aggregatord.reset();
        aggregatord = std::make_unique<AggregatorDaemon>(agg_config);
        aggregatord->Start();
        ASSERT_EQ(aggregatord->port(), agg_config.port);
      }
    };
  }

  FleetDriver fleet(fleet_config);
  for (size_t i = 0; i < fleet.num_clients(); ++i) {
    FillDatabase(fleet.client(i).database(), i);
  }
  for (const core::Query& query : queries) {
    fleet.SubmitQuery(query, RandomizedParams());
  }
  for (size_t e = 0; e < kEpochs; ++e) {
    current_epoch = e;
    if (update.has_value() && update->epoch == e) {
      fleet.UpdateParams(update->query_id, update->params);
    }
    const FleetEpochStats stats =
        fleet.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
    if (restart.target == RestartSpec::kNone) {
      // Conservation over the wire: everything sent was forwarded and
      // consumed (loopback TCP loses nothing). A restarted aggregator
      // legitimately re-consumes, so the per-epoch counts don't apply.
      EXPECT_EQ(stats.shares_forwarded, stats.shares_sent);
      EXPECT_EQ(stats.shares_consumed, stats.shares_sent);
    }
    if (metrics != nullptr) {
      metrics->shares_forwarded += stats.shares_forwarded;
    }
  }
  if (restart.target != RestartSpec::kNone) {
    EXPECT_TRUE(restarted) << "restart never fired";
  }
  fleet.Flush();
  if (metrics != nullptr) {
    for (size_t j = 0; j < kProxies; ++j) {
      metrics->proxyds.push_back(fleet.ProxyMetricsText(j));
    }
    metrics->aggregatord = fleet.AggregatorMetricsText();
    metrics->fleet = fleet.MetricsText();
  }
  return fleet.TakeResults();
}

// The in-process reference over identical inputs (the worker pool at its
// default size, pinned bit-identical to one worker by parallel_epoch_test).
std::vector<aggregator::WindowedResult> RunInProcessReference(
    const std::vector<core::Query>& queries,
    std::string* metrics_text = nullptr,
    const std::optional<ParamsUpdate>& update = std::nullopt) {
  system::SystemConfig config;
  config.num_clients = kClients;
  config.num_proxies = kProxies;
  config.seed = kSeed;
  system::PrivApproxSystem sys(config);
  for (size_t i = 0; i < kClients; ++i) {
    FillDatabase(sys.client(i).database(), i);
  }
  for (const core::Query& query : queries) {
    sys.SubmitQuery(query, RandomizedParams());
  }
  for (size_t e = 0; e < kEpochs; ++e) {
    if (update.has_value() && update->epoch == e) {
      sys.UpdateParams(update->query_id, update->params);
    }
    sys.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
  }
  sys.Flush();
  if (metrics_text != nullptr) {
    *metrics_text = sys.MetricsText();
  }
  return sys.TakeResults();
}

// Family names (from the # TYPE lines) of a text exposition.
std::set<std::string> Families(const std::string& text) {
  std::set<std::string> families;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.insert(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  return families;
}

// The value of the sample `family{topic="<topic>"}` in a text exposition,
// or -1 when it is missing.
double TopicSample(const std::string& text, const std::string& family,
                   const std::string& topic) {
  const std::string key = family + "{topic=\"" + topic + "\"} ";
  const size_t at = text.find(key);
  return at == std::string::npos ? -1.0
                                 : std::stod(text.substr(at + key.size()));
}

TEST(SocketDeploymentTest, SingleQueryMatchesInProcessBitForBit) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  const std::vector<uint8_t> socket_wire =
      SerializeResults(RunSocketDeployment(queries));
  const std::vector<uint8_t> inproc_wire =
      SerializeResults(RunInProcessReference(queries));
  ASSERT_FALSE(socket_wire.empty());
  EXPECT_EQ(socket_wire, inproc_wire);
}

// A re-tuned query reaches both deployments through the same driver: the
// fleet re-announces it through every proxyd and aggregatord's update_params
// switches its estimator, so the result bytes — estimates under the new
// (s, p, q), the other query's untouched — equal the in-process run's.
TEST(SocketDeploymentTest, UpdateParamsMatchesInProcess) {
  const std::vector<core::Query> queries = {SpeedQuery(), FareQuery()};
  const ParamsUpdate update = RetuneSpeedBeforeEpoch1();
  const std::vector<uint8_t> socket_wire = SerializeResults(RunSocketDeployment(
      queries, RestartSpec{}, /*force_durable=*/false, nullptr, update));
  const std::vector<aggregator::WindowedResult> inproc =
      RunInProcessReference(queries, nullptr, update);
  ASSERT_FALSE(inproc.empty());
  EXPECT_EQ(socket_wire, SerializeResults(inproc));
  // The update took effect: the re-tuned query reports its new s.
  for (const aggregator::WindowedResult& result : inproc) {
    EXPECT_EQ(result.result.sampling_fraction,
              result.query_id == update.query_id
                  ? update.params.sampling_fraction
                  : RandomizedParams().sampling_fraction);
  }
  EXPECT_NE(socket_wire, SerializeResults(RunInProcessReference(queries)));
}

TEST(SocketDeploymentTest, MultiQueryMatchesInProcessPerQuery) {
  const std::vector<core::Query> queries = {SpeedQuery(), FareQuery()};
  const std::vector<aggregator::WindowedResult> socket_results =
      RunSocketDeployment(queries);
  const std::vector<aggregator::WindowedResult> inproc_results =
      RunInProcessReference(queries);

  // Whole-stream equality...
  EXPECT_EQ(SerializeResults(socket_results),
            SerializeResults(inproc_results));

  // ...and per-query bit-identity under the multi-query runtime: each QID's
  // result subsequence matches independently.
  for (const uint64_t qid : {uint64_t{1}, uint64_t{2}}) {
    std::vector<aggregator::WindowedResult> socket_lane, inproc_lane;
    for (const auto& result : socket_results) {
      if (result.query_id == qid) {
        socket_lane.push_back(result);
      }
    }
    for (const auto& result : inproc_results) {
      if (result.query_id == qid) {
        inproc_lane.push_back(result);
      }
    }
    ASSERT_FALSE(socket_lane.empty()) << "query " << qid;
    EXPECT_EQ(SerializeResults(socket_lane), SerializeResults(inproc_lane))
        << "query " << qid;
  }
}

// An operator sees what a proxy daemon holds in memory straight off its
// /metrics: slab and retained-record gauges for every lane topic. After
// forward_lanes the inbound lane retains nothing; the outbound lane keeps
// what it forwarded for the aggregator daemon.
TEST(SocketDeploymentTest, ProxydMetricsExportLaneTopicGauges) {
  ProxyDaemon proxyd(ProxyDaemonConfig{});
  proxyd.Start();
  transport::TcpBusClientConfig client_config;
  client_config.port = proxyd.port();
  transport::TcpBusClient bus(client_config);
  std::vector<uint8_t> qid;
  transport::PutU64(7, qid);
  bus.Control("ensure_lane", qid);
  const std::vector<uint8_t> payload(24, 0x5A);
  std::vector<broker::ProduceView> records;
  for (uint64_t mid = 0; mid < 50; ++mid) {
    records.push_back(broker::ProduceView{mid, payload, 1000});
  }
  bus.Produce("proxy0.q7.in", records);
  bus.Control("forward_lanes");

  const std::string text = proxyd.MetricsText();
  for (const std::string topic : {"proxy0.q7.in", "proxy0.q7.out"}) {
    for (const std::string family :
         {"privapprox_topic_slab_allocated_bytes",
          "privapprox_topic_slab_used_bytes", "privapprox_topic_index_bytes",
          "privapprox_topic_retained_records"}) {
      EXPECT_NE(text.find(family + "{topic=\"" + topic + "\"} "),
                std::string::npos)
          << family << " missing for " << topic;
    }
  }
  const std::string retained = "privapprox_topic_retained_records{topic=";
  EXPECT_NE(text.find(retained + "\"proxy0.q7.in\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find(retained + "\"proxy0.q7.out\"} 50\n"),
            std::string::npos);
  proxyd.Stop();
}

// An operator of the daemons sees the families the in-process system
// exports for the same components: each component registers them itself,
// on whichever registry hosts it.
TEST(SocketDeploymentTest, DaemonsExportTheInProcessComponentFamilies) {
  const std::vector<core::Query> queries = {SpeedQuery(), FareQuery()};
  DeploymentMetrics deployed;
  RunSocketDeployment(queries, RestartSpec{}, /*force_durable=*/false,
                      &deployed);
  std::string inproc;
  RunInProcessReference(queries, &inproc);

  const std::set<std::string> client_families = {
      "privapprox_participants_total", "privapprox_client_skips_total",
      "privapprox_shares_sent_total"};
  size_t checked = 0;
  for (const std::string& family : Families(inproc)) {
    const bool proxy = family.rfind("privapprox_proxy_", 0) == 0;
    const bool agg = family.rfind("privapprox_agg_", 0) == 0 ||
                     family == "privapprox_malformed_dropped_total";
    const bool client = client_families.count(family) != 0;
    checked += (proxy || agg || client) ? 1 : 0;
    for (size_t j = 0; proxy && j < kProxies; ++j) {
      EXPECT_EQ(Families(deployed.proxyds[j]).count(family), 1u)
          << family << " missing on proxyd " << j;
    }
    EXPECT_TRUE(!agg || Families(deployed.aggregatord).count(family) == 1)
        << family << " missing on aggregatord";
    EXPECT_TRUE(!client || Families(deployed.fleet).count(family) == 1)
        << family << " missing on the fleet driver";
  }
  // 2 proxy families, 8 aggregator families, 3 client decision counters.
  EXPECT_EQ(checked, 13u);

  // Every share a client sent arrives at its lane in-topic in both
  // deployments, and each broker counts the arrivals.
  for (size_t j = 0; j < kProxies; ++j) {
    for (const core::Query& query : queries) {
      const std::string topic = "proxy" + std::to_string(j) + ".q" +
                                std::to_string(query.query_id) + ".in";
      const double inproc_in =
          TopicSample(inproc, "privapprox_topic_records_in", topic);
      EXPECT_GT(inproc_in, 0.0) << topic;
      EXPECT_EQ(TopicSample(deployed.proxyds[j],
                            "privapprox_topic_records_in", topic),
                inproc_in)
          << topic;
    }
  }

  uint64_t forwarded = 0;
  for (size_t j = 0; j < kProxies; ++j) {
    const std::string key = "privapprox_proxy_forwarded_total{proxy=\"" +
                            std::to_string(j) + "\"} ";
    const size_t at = deployed.proxyds[j].find(key);
    ASSERT_NE(at, std::string::npos) << key;
    forwarded += std::stoull(deployed.proxyds[j].substr(at + key.size()));
  }
  EXPECT_GT(forwarded, 0u);
  EXPECT_EQ(forwarded, deployed.shares_forwarded);
}

// A peer chooses topic names, and the broker gauges label samples with
// them. A name built to close its sample line and open another must stay
// inside one escaped label value: no forged sample appears, and every
// sample line keeps the form `name{labels} value`.
TEST(SocketDeploymentTest, TopicNamesCannotForgeMetricsLines) {
  ProxyDaemon proxyd(ProxyDaemonConfig{});
  proxyd.Start();
  transport::TcpBusClientConfig client_config;
  client_config.port = proxyd.port();
  transport::TcpBusClient bus(client_config);
  const std::string forged = "privapprox_transport_protocol_errors_total 0";
  bus.EnsureTopic("x\"} 0\n" + forged + "\n# x{a=\"", 1);

  const std::string text = proxyd.MetricsText();
  const std::regex sample(
      R"re([A-Za-z_:][A-Za-z0-9_:]*)re"
      R"re((\{[A-Za-z_][A-Za-z0-9_]*="([^"\\]|\\[\\"n])*")re"
      R"re((,[A-Za-z_][A-Za-z0-9_]*="([^"\\]|\\[\\"n])*")*\})? -?[0-9]+)re");
  std::istringstream in(text);
  std::string line;
  size_t forged_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    EXPECT_TRUE(std::regex_match(line, sample)) << line;
    forged_lines += line == forged ? 1 : 0;
  }
  // The daemon's own protocol-error counter is the one legitimate line.
  EXPECT_EQ(forged_lines, 1u) << text;
  proxyd.Stop();
}

// aggregatord's byte and frame families count its proxy-bus clients, so
// their help speaks from the client's side: frames in are the proxyds'
// responses, frames out aggregatord's requests, one each per round trip.
TEST(SocketDeploymentTest, AggregatordTransportHelpDescribesItsProxyClients) {
  std::vector<std::unique_ptr<ProxyDaemon>> proxyds;
  AggregatorDaemonConfig config;
  std::vector<uint8_t> qid;
  transport::PutU64(SpeedQuery().query_id, qid);
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig proxy_config;
    proxy_config.proxy_index = j;
    proxyds.push_back(std::make_unique<ProxyDaemon>(proxy_config));
    proxyds.back()->Start();
    config.proxies.push_back(Endpoint{"127.0.0.1", proxyds.back()->port()});
    transport::TcpBusClientConfig client_config;
    client_config.port = proxyds.back()->port();
    transport::TcpBusClient(client_config).Control("ensure_lane", qid);
  }
  config.population = kClients;
  AggregatorDaemon aggregatord(config);
  aggregatord.Start();
  transport::TcpBusClientConfig client_config;
  client_config.port = aggregatord.port();
  transport::TcpBusClient(client_config)
      .Control("register_query",
               core::SerializeAnnouncement(
                   core::QueryAnnouncement{SpeedQuery(), RandomizedParams()}));

  const std::string text = aggregatord.MetricsText();
  const std::string frames_in = "privapprox_transport_frames_in_total";
  const std::string frames_out = "privapprox_transport_frames_out_total";
  EXPECT_NE(text.find("# HELP " + frames_in + " Response frames received\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP " + frames_out + " Request frames sent\n"),
            std::string::npos)
      << text;
  const auto sample = [&text](const std::string& family) {
    const size_t at = text.find("\n" + family + " ");
    return at == std::string::npos
               ? -1.0
               : std::stod(text.substr(at + family.size() + 2));
  };
  EXPECT_GT(sample(frames_in), 0.0) << text;
  EXPECT_EQ(sample(frames_in), sample(frames_out)) << text;
}

// aggregatord's port fronts no broker: every topic request gets an error
// response, so a peer can neither create topics there nor append records
// that nothing would read, and the connection keeps serving verbs.
TEST(SocketDeploymentTest, AggregatordServesOnlyControlVerbs) {
  std::vector<std::unique_ptr<ProxyDaemon>> proxyds;
  AggregatorDaemonConfig config;
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig proxy_config;
    proxy_config.proxy_index = j;
    proxyds.push_back(std::make_unique<ProxyDaemon>(proxy_config));
    proxyds.back()->Start();
    config.proxies.push_back(Endpoint{"127.0.0.1", proxyds.back()->port()});
  }
  config.population = kClients;
  AggregatorDaemon aggregatord(config);
  aggregatord.Start();
  transport::TcpBusClientConfig client_config;
  client_config.port = aggregatord.port();
  transport::TcpBusClient bus(client_config);
  const std::vector<uint8_t> payload(16, 7);
  const broker::ProduceView record{1, payload, 0};
  std::vector<broker::RecordView> polled;
  const uint64_t below[] = {1};
  const std::pair<const char*, std::function<void()>> requests[] = {
      {"EnsureTopic", [&] { bus.EnsureTopic("t", 1024); }},
      {"Produce", [&] { bus.Produce("t", {&record, 1}); }},
      {"Poll", [&] { bus.Poll("t", 0, 0, 16, polled); }},
      {"EndOffset", [&] { bus.EndOffset("t", 0); }},
      {"NumPartitions", [&] { bus.NumPartitions("t"); }},
      {"Release", [&] { bus.Release("t", below); }}};
  for (const auto& [name, request] : requests) {
    SCOPED_TRACE(name);
    try {
      request();
      ADD_FAILURE() << "aggregatord served a topic request";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("control verbs only"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_NO_THROW(bus.Control("ping"));
  aggregatord.Stop();
}

TEST(SocketDeploymentTest, RerunningTheSocketDeploymentIsDeterministic) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  EXPECT_EQ(SerializeResults(RunSocketDeployment(queries)),
            SerializeResults(RunSocketDeployment(queries)));
}

// A Query is a plain struct, so a signed one can still carry a slide longer
// than its window. The driver refuses such a query before any RPC, and it
// subscribes clients only after register_query succeeded — so neither that
// query nor one whose register_query could not reach a stopped aggregatord
// leaves a client subscribed to a query no lane serves. The fleet keeps
// answering, bit-identical to an in-process run of the admitted query.
TEST(SocketDeploymentTest, RefusedSubmissionsLeaveTheFleetAnswering) {
  std::vector<std::unique_ptr<ProxyDaemon>> proxyds;
  std::vector<Endpoint> proxy_endpoints;
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig config;
    config.proxy_index = j;
    proxyds.push_back(std::make_unique<ProxyDaemon>(config));
    proxyds.back()->Start();
    proxy_endpoints.push_back(Endpoint{"127.0.0.1", proxyds.back()->port()});
  }
  AggregatorDaemonConfig agg_config;
  agg_config.proxies = proxy_endpoints;
  agg_config.population = kClients;
  auto aggregatord = std::make_unique<AggregatorDaemon>(agg_config);
  aggregatord->Start();
  agg_config.port = aggregatord->port();

  FleetDriverConfig fleet_config;
  fleet_config.num_clients = kClients;
  fleet_config.seed = kSeed;
  fleet_config.proxies = proxy_endpoints;
  fleet_config.aggregator = Endpoint{"127.0.0.1", agg_config.port};
  FleetDriver fleet(fleet_config);
  for (size_t i = 0; i < fleet.num_clients(); ++i) {
    FillDatabase(fleet.client(i).database(), i);
  }

  core::Query long_slide = FareQuery();
  long_slide.query_id = 3;
  long_slide.sliding_interval_ms = long_slide.window_length_ms + 1;
  long_slide.Sign();
  EXPECT_THROW(fleet.SubmitQuery(long_slide, RandomizedParams()),
               std::invalid_argument);
  EXPECT_EQ(fleet.client(0).num_subscriptions(), 0u);

  aggregatord.reset();  // register_query can no longer reach it
  EXPECT_THROW(fleet.SubmitQuery(FareQuery(), RandomizedParams()),
               std::runtime_error);
  EXPECT_EQ(fleet.client(0).num_subscriptions(), 0u);
  aggregatord = std::make_unique<AggregatorDaemon>(agg_config);
  aggregatord->Start();

  fleet.SubmitQuery(SpeedQuery(), RandomizedParams());
  EXPECT_EQ(fleet.client(0).num_subscriptions(), 1u);
  for (size_t e = 0; e < kEpochs; ++e) {
    const FleetEpochStats stats =
        fleet.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
    EXPECT_EQ(stats.shares_consumed, stats.shares_sent);
  }
  fleet.Flush();
  EXPECT_EQ(SerializeResults(fleet.TakeResults()),
            SerializeResults(RunInProcessReference({SpeedQuery()})));
}

// ---------------------------------------------------------- crash recovery

// The durable acceptance gate, in-process edition (the chaos CI job does
// the same with kill -9 across real processes): a proxy daemon torn down
// and recovered from disk mid-epoch yields the exact bytes of an
// uninterrupted durable run — which the DurableResultsMatchMemoryOnly gate
// already pins to the memory-only bytes.
TEST(SocketRestartTest, ProxyRestartMidEpochConvergesBitForBit) {
  const std::vector<core::Query> queries = {SpeedQuery(), FareQuery()};
  const std::vector<uint8_t> reference =
      SerializeResults(RunSocketDeployment(queries, RestartSpec{},
                                           /*force_durable=*/true));
  RestartSpec restart;
  restart.target = RestartSpec::kProxy0;
  restart.epoch = 1;
  const std::vector<uint8_t> interrupted = SerializeResults(
      RunSocketDeployment(queries, restart, /*force_durable=*/true));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(interrupted, reference);
}

// Same for the aggregator: its query journal re-registers the lanes and its
// consumers re-drain the durable proxy streams from offset zero; windows
// only fire at Flush, so the interrupted run converges.
TEST(SocketRestartTest, AggregatorRestartMidEpochConvergesBitForBit) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  const std::vector<uint8_t> reference =
      SerializeResults(RunSocketDeployment(queries, RestartSpec{},
                                           /*force_durable=*/true));
  RestartSpec restart;
  restart.target = RestartSpec::kAggregator;
  restart.epoch = 1;
  const std::vector<uint8_t> interrupted = SerializeResults(
      RunSocketDeployment(queries, restart, /*force_durable=*/true));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(interrupted, reference);
}

// An update is journaled like a registration: an aggregatord restarted after
// it replays the register and then the update, so the recovered deployment
// estimates under the new parameters, exactly as the uninterrupted run does.
TEST(SocketRestartTest, AggregatorRestartAfterAnUpdateReplaysIt) {
  const std::vector<core::Query> queries = {SpeedQuery(), FareQuery()};
  const ParamsUpdate update = RetuneSpeedBeforeEpoch1();
  const std::vector<uint8_t> reference = SerializeResults(RunSocketDeployment(
      queries, RestartSpec{}, /*force_durable=*/true, nullptr, update));
  RestartSpec restart;
  restart.target = RestartSpec::kAggregator;
  restart.epoch = 2;
  const std::vector<uint8_t> interrupted = SerializeResults(
      RunSocketDeployment(queries, restart, /*force_durable=*/true, nullptr,
                          update));
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(interrupted, reference);
  EXPECT_EQ(reference,
            SerializeResults(RunInProcessReference(queries, nullptr, update)));
}

// aggregatord journals every announcement it accepts and re-registers the
// journal at startup, so it must refuse an announcement it cannot register
// before journaling it: a journaled bad query (slide > window) or bad
// parameters would otherwise stop the daemon from ever restarting from its
// data dir.
TEST(SocketRestartTest, RefusedRegistrationKeepsTheJournalReplayable) {
  TempDir data_root;
  std::vector<std::unique_ptr<ProxyDaemon>> proxyds;
  AggregatorDaemonConfig config;
  std::vector<uint8_t> qid_payload;
  transport::PutU64(SpeedQuery().query_id, qid_payload);
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig proxy_config;
    proxy_config.proxy_index = j;
    proxyds.push_back(std::make_unique<ProxyDaemon>(proxy_config));
    proxyds.back()->Start();
    config.proxies.push_back(Endpoint{"127.0.0.1", proxyds.back()->port()});
    transport::TcpBusClientConfig client_config;
    client_config.port = proxyds.back()->port();
    transport::TcpBusClient(client_config).Control("ensure_lane",
                                                   qid_payload);
  }
  config.population = kClients;
  config.data_dir = (data_root.path() / "aggregatord").string();

  core::Query long_slide = SpeedQuery();
  long_slide.sliding_interval_ms = long_slide.window_length_ms + 1;
  long_slide.Sign();
  core::ExecutionParams bad_params = RandomizedParams();
  bad_params.sampling_fraction = 0.0;
  const auto announce = [](const core::Query& query,
                           const core::ExecutionParams& params) {
    return core::SerializeAnnouncement(core::QueryAnnouncement{query, params});
  };
  {
    AggregatorDaemon aggregatord(config);
    aggregatord.Start();
    transport::TcpBusClientConfig client_config;
    client_config.port = aggregatord.port();
    transport::TcpBusClient bus(client_config);
    EXPECT_THROW(bus.Control("register_query",
                             announce(long_slide, RandomizedParams())),
                 std::runtime_error);
    EXPECT_THROW(
        bus.Control("register_query", announce(SpeedQuery(), bad_params)),
        std::runtime_error);
    bus.Control("register_query", announce(SpeedQuery(), RandomizedParams()));
  }
  // The restart replays exactly the one accepted announcement.
  {
    AggregatorDaemon restarted(config);
    restarted.Start();
    transport::TcpBusClientConfig client_config;
    client_config.port = restarted.port();
    transport::TcpBusClient bus(client_config);
    const std::vector<uint8_t> snapshot = bus.Control("snapshot_offsets");
    const std::string text(snapshot.begin(), snapshot.end());
    EXPECT_NE(text.find("source proxy0.q1.out"), std::string::npos) << text;
    EXPECT_NE(text.find("journal records=1 "), std::string::npos) << text;
  }

  // Lane topics of 4 and 2 partitions cannot be joined shard by shard: the
  // submission is refused before aggregatord journals it, the budget is
  // released and no client subscribes, and a restart replays nothing.
  TempDir mismatched_root;
  std::vector<std::unique_ptr<ProxyDaemon>> mismatched;
  AggregatorDaemonConfig mismatched_config;
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig proxy_config;
    proxy_config.proxy_index = j;
    proxy_config.num_partitions = j == 1 ? 2 : 4;
    mismatched.push_back(std::make_unique<ProxyDaemon>(proxy_config));
    mismatched.back()->Start();
    mismatched_config.proxies.push_back(
        Endpoint{"127.0.0.1", mismatched.back()->port()});
  }
  mismatched_config.population = kClients;
  mismatched_config.data_dir =
      (mismatched_root.path() / "aggregatord").string();
  {
    AggregatorDaemon aggregatord(mismatched_config);
    aggregatord.Start();
    FleetDriverConfig fleet_config;
    fleet_config.num_clients = kClients;
    fleet_config.seed = kSeed;
    fleet_config.proxies = mismatched_config.proxies;
    fleet_config.aggregator = Endpoint{"127.0.0.1", aggregatord.port()};
    FleetDriver fleet(fleet_config);
    EXPECT_THROW(fleet.SubmitQuery(SpeedQuery(), RandomizedParams()),
                 std::runtime_error);
    // Refused again by aggregatord, not by the budget manager: the first
    // refusal released the query's budget.
    EXPECT_THROW(fleet.SubmitQuery(SpeedQuery(), RandomizedParams()),
                 std::runtime_error);
    for (size_t i = 0; i < kClients; ++i) {
      EXPECT_FALSE(fleet.client(i).subscribed()) << "client " << i;
    }
  }
  AggregatorDaemon restarted(mismatched_config);
  restarted.Start();
  transport::TcpBusClientConfig client_config;
  client_config.port = restarted.port();
  transport::TcpBusClient bus(client_config);
  const std::vector<uint8_t> snapshot = bus.Control("snapshot_offsets");
  const std::string text(snapshot.begin(), snapshot.end());
  EXPECT_EQ(text.find("source "), std::string::npos) << text;
  EXPECT_NE(text.find("journal records=0 "), std::string::npos) << text;
}

// Runs kEpochs epochs of SpeedQuery on memory-only proxy daemons behind an
// aggregator daemon whose data dir is `aggregator_data_dir` (empty: none).
// Returns what each proxy daemon's /metrics says its lane out-topic still
// holds; `forwarded` receives the shares the proxies forwarded in all.
std::vector<double> OutTopicRetainedAfterRun(
    const std::string& aggregator_data_dir, uint64_t& forwarded) {
  std::vector<std::unique_ptr<ProxyDaemon>> proxyds;
  std::vector<Endpoint> endpoints;
  for (size_t j = 0; j < kProxies; ++j) {
    ProxyDaemonConfig config;
    config.proxy_index = j;
    proxyds.push_back(std::make_unique<ProxyDaemon>(config));
    proxyds.back()->Start();
    endpoints.push_back(Endpoint{"127.0.0.1", proxyds.back()->port()});
  }
  AggregatorDaemonConfig agg_config;
  agg_config.proxies = endpoints;
  agg_config.population = kClients;
  agg_config.data_dir = aggregator_data_dir;
  AggregatorDaemon aggregatord(agg_config);
  aggregatord.Start();
  FleetDriverConfig fleet_config;
  fleet_config.num_clients = kClients;
  fleet_config.seed = kSeed;
  fleet_config.proxies = endpoints;
  fleet_config.aggregator = Endpoint{"127.0.0.1", aggregatord.port()};
  FleetDriver fleet(fleet_config);
  for (size_t i = 0; i < fleet.num_clients(); ++i) {
    FillDatabase(fleet.client(i).database(), i);
  }
  fleet.SubmitQuery(SpeedQuery(), RandomizedParams());
  forwarded = 0;
  for (size_t e = 0; e < kEpochs; ++e) {
    forwarded +=
        fleet.RunEpoch(static_cast<int64_t>(1000 * (e + 1))).shares_forwarded;
  }
  std::vector<double> retained;
  for (size_t j = 0; j < kProxies; ++j) {
    const std::string key = "privapprox_topic_retained_records{topic=\"proxy" +
                            std::to_string(j) + ".q1.out\"} ";
    const std::string text = fleet.ProxyMetricsText(j);
    const size_t at = text.find(key);
    retained.push_back(at == std::string::npos
                           ? -1.0
                           : std::stod(text.substr(at + key.size())));
  }
  aggregatord.Stop();
  for (auto& proxyd : proxyds) {
    proxyd->Stop();
  }
  return retained;
}

// A restarted durable aggregatord re-drains every source from offset 0, so
// it must leave the lane out-topics in proxyd memory. A memory-only
// aggregatord has nothing to re-drain after a restart and releases them
// after every drain.
TEST(SocketRestartTest, DurableAggregatordLeavesProxydOutTopicsRetained) {
  TempDir data_root;
  uint64_t forwarded = 0;
  const std::vector<double> durable = OutTopicRetainedAfterRun(
      (data_root.path() / "aggregatord").string(), forwarded);
  ASSERT_GT(forwarded, 0u);
  for (const double retained : durable) {
    EXPECT_EQ(retained, static_cast<double>(forwarded / kProxies));
  }
  const std::vector<double> memory_only =
      OutTopicRetainedAfterRun("", forwarded);
  for (const double retained : memory_only) {
    EXPECT_EQ(retained, 0.0);
  }
}

// A durable socket deployment with no interruption produces the same bytes
// as the memory-only one — the spill layer is invisible to results.
TEST(SocketRestartTest, DurableDeploymentMatchesMemoryOnly) {
  const std::vector<core::Query> queries = {SpeedQuery()};
  EXPECT_EQ(SerializeResults(RunSocketDeployment(queries, RestartSpec{},
                                                 /*force_durable=*/true)),
            SerializeResults(RunInProcessReference(queries)));
}

}  // namespace
}  // namespace privapprox::deploy
