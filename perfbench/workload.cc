#include "workload.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/answer.h"

namespace perfbench {

namespace {

constexpr int kFilterSpeed = 50;

QueryDef SpeedQuery(uint64_t qid) {
  return QueryDef{qid, "SELECT speed FROM vehicle", 0, false, 10};
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;

  Workload one;
  one.name = "inproc_1q";
  one.clients = 40000;
  one.window_epochs = 1;
  one.watermark_lag_epochs = 0;
  one.epochs_per_second = 15.0;
  one.queries = {SpeedQuery(1)};
  all.push_back(one);

  Workload faults;
  faults.name = "inproc_3q_faults";
  faults.clients = 30000;
  faults.window_epochs = 4;
  faults.watermark_lag_epochs = 1;
  faults.epochs_per_second = 5.0;
  faults.queries = {
      SpeedQuery(1),
      QueryDef{2, "SELECT load FROM vehicle", 1, false, 80},
      QueryDef{3,
               "SELECT load FROM vehicle WHERE speed >= " +
                   std::to_string(kFilterSpeed),
               1, true, 10},
  };
  fault::FaultPlan plan;
  plan.drop_probability = 0.01;
  plan.corrupt_probability = 0.005;
  plan.duplicate_probability = 0.01;
  plan.delay_probability = 0.01;
  faults.fault = plan;
  all.push_back(faults);

  Workload tcp;
  tcp.name = "tcp_1q";
  tcp.tcp = true;
  tcp.clients = 20000;
  tcp.window_epochs = 1;
  tcp.watermark_lag_epochs = 0;
  tcp.epochs_per_second = 15.0;
  tcp.queries = {SpeedQuery(1)};
  all.push_back(tcp);
  return all;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

size_t SetBucket(const BitVector& bits) {
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits.Get(i)) {
      return i;
    }
  }
  throw std::logic_error("perfbench: reading encodes to no bucket");
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& workload : Workloads()) {
    names.push_back(workload.name);
  }
  return names;
}

core::Query BuildQuery(const Workload& workload, const QueryDef& def) {
  const int64_t window_ms = workload.window_epochs * kPeriodMs;
  return core::QueryBuilder()
      .WithId(def.qid)
      .WithSql(def.sql)
      .WithAnswerFormat(
          core::AnswerFormat::UniformNumeric(0, 100, def.buckets, true))
      .WithFrequencyMs(kPeriodMs)
      .WithWindowMs(window_ms)
      .WithSlideMs(kPeriodMs)
      .Build();
}

core::ExecutionParams TableThreeParams() {
  core::ExecutionParams params;
  params.sampling_fraction = 0.6;
  params.randomization = {0.9, 0.6};
  return params;
}

// --- Generator --------------------------------------------------------------

Generator::Generator(const Workload& workload, uint64_t seed)
    : workload_(workload), seed_(seed) {
  for (const QueryDef& def : workload_.queries) {
    const core::Query query = BuildQuery(workload_, def);
    std::vector<size_t> table(100);
    for (int v = 0; v < 100; ++v) {
      table[v] = SetBucket(
          core::EncodeAnswer(query.answer_format, static_cast<double>(v)));
    }
    bucket_of_.push_back(std::move(table));
  }
}

Generator::Reading Generator::At(size_t client, int64_t epoch) const {
  // Each client drives around its own typical speed; load is independent.
  const uint64_t base = Mix(seed_ ^ Mix(client)) % 80;
  const uint64_t h =
      Mix(seed_ ^ Mix(client * 0x100000001B3ULL + static_cast<uint64_t>(epoch)));
  Reading reading;
  reading.speed = static_cast<int>(base + h % 21);  // [0, 100)
  reading.load = static_cast<int>((h >> 20) % 100);
  return reading;
}

void Generator::Feed(int64_t epoch, size_t client, localdb::Database& db) const {
  if (!db.HasTable("vehicle")) {
    db.CreateTable("vehicle", {"speed", "load"});
  }
  const Reading r = At(client, epoch);
  db.GetTable("vehicle").Insert(
      EpochNow(epoch) - kPeriodMs / 2,
      {localdb::Value(static_cast<double>(r.speed)),
       localdb::Value(static_cast<double>(r.load))});
  db.EvictBefore(EpochNow(epoch) - workload_.window_epochs * kPeriodMs);
}

const std::vector<std::vector<double>>& Generator::Truth(int64_t epoch) {
  auto it = truth_.find(epoch);
  if (it != truth_.end()) {
    return it->second;
  }
  const size_t nq = workload_.queries.size();
  std::vector<std::vector<double>> counts(nq);
  for (size_t k = 0; k < nq; ++k) {
    counts[k].assign(workload_.queries[k].buckets + 1, 0.0);
  }
  const int64_t first = std::max<int64_t>(0, epoch - workload_.window_epochs + 1);
  for (size_t c = 0; c < workload_.clients; ++c) {
    for (size_t k = 0; k < nq; ++k) {
      const QueryDef& def = workload_.queries[k];
      // Clients bucketize the first row in their window that passes the
      // query's filter; no such row means an all-zero answer.
      for (int64_t e = first; e <= epoch; ++e) {
        const Reading r = At(c, e);
        if (def.speed_filter && r.speed < kFilterSpeed) {
          continue;
        }
        counts[k][bucket_of_[k][def.column == 0 ? r.speed : r.load]] += 1.0;
        break;
      }
    }
  }
  return truth_.emplace(epoch, std::move(counts)).first->second;
}

// --- Checker ----------------------------------------------------------------

Checker::Checker(const Workload& workload, Generator& generator)
    : workload_(workload), generator_(generator) {}

void Checker::Add(const std::vector<aggregator::WindowedResult>& results) {
  results_.insert(results_.end(), results.begin(), results.end());
}

std::vector<std::string> Checker::Verify(int64_t last_epoch,
                                         const AnswerCounts& counts) {
  std::vector<std::string> failures;
  const int64_t w = workload_.window_epochs;
  const int64_t window_ms = w * kPeriodMs;

  // 1. Every expected window, once, for every query.
  std::set<std::pair<uint64_t, int64_t>> expected;
  for (const QueryDef& def : workload_.queries) {
    for (int64_t e = 0; e <= last_epoch; ++e) {
      for (int64_t k = 0; k < w; ++k) {
        expected.emplace(def.qid, EpochNow(e) - k * kPeriodMs);
      }
    }
  }
  std::set<std::pair<uint64_t, int64_t>> seen;
  size_t bad_shape = 0;
  for (const auto& r : results_) {
    if (!seen.emplace(r.query_id, r.window.start_ms).second ||
        r.window.end_ms - r.window.start_ms != window_ms) {
      ++bad_shape;
    }
  }
  if (seen != expected || bad_shape != 0) {
    std::ostringstream msg;
    msg << "windows: expected " << expected.size() << " distinct windows, got "
        << seen.size() << " (" << bad_shape << " duplicate or misshapen)";
    failures.push_back(msg.str());
  }

  // 2. Joined answers equal participants minus the seed-determined losses.
  // Shares the plan deferred out of the last epoch are still in flight.
  uint64_t window_answers = 0;
  for (const auto& r : results_) {
    window_answers += r.result.participants;
  }
  counted_ = window_answers / static_cast<uint64_t>(w);
  const int64_t unexplained = static_cast<int64_t>(counts.attempted) -
                              static_cast<int64_t>(counts.lost) -
                              static_cast<int64_t>(counted_);
  in_flight_ = static_cast<uint64_t>(std::clamp<int64_t>(
      unexplained, 0, static_cast<int64_t>(counts.delayed_last)));
  failed_ = static_cast<uint64_t>(
      std::max<int64_t>(0, unexplained - static_cast<int64_t>(in_flight_)));
  if (window_answers % static_cast<uint64_t>(w) != 0 || unexplained < 0 ||
      failed_ != 0) {
    std::ostringstream msg;
    msg << "join_accounting: attempted " << counts.attempted << ", lost "
        << counts.lost << ", counted " << counted_ << " (window answers "
        << window_answers << "), deferred at end " << counts.delayed_last;
    failures.push_back(msg.str());
  }

  // 3. Confidence intervals cover the generator's truth. A window's estimate
  // is the per-epoch population count averaged over the epochs it holds.
  size_t checked = 0;
  size_t covered = 0;
  for (const auto& r : results_) {
    size_t k = 0;
    while (k < workload_.queries.size() &&
           workload_.queries[k].qid != r.query_id) {
      ++k;
    }
    if (k == workload_.queries.size()) {
      failures.push_back("windows: result for unknown query " +
                         std::to_string(r.query_id));
      continue;
    }
    std::vector<double> truth(r.result.buckets.size(), 0.0);
    int64_t epochs = 0;
    for (int64_t e = 0; e <= last_epoch; ++e) {
      const int64_t t = EpochNow(e);
      if (t < r.window.start_ms || t >= r.window.end_ms) {
        continue;
      }
      ++epochs;
      const auto& per_epoch = generator_.Truth(e)[k];
      for (size_t b = 0; b < truth.size() && b < per_epoch.size(); ++b) {
        truth[b] += per_epoch[b];
      }
    }
    if (epochs == 0 || r.result.participants == 0) {
      continue;
    }
    for (size_t b = 0; b < truth.size(); ++b) {
      const auto& est = r.result.buckets[b].estimate;
      const double t = truth[b] / static_cast<double>(epochs);
      ++checked;
      if (std::abs(est.value - t) <= est.error) {
        ++covered;
      }
    }
  }
  coverage_ = checked == 0 ? 0.0
                           : static_cast<double>(covered) /
                                 static_cast<double>(checked);
  if (checked == 0 || coverage_ < kCoverageFloor) {
    std::ostringstream msg;
    msg << "ci_coverage: " << covered << " of " << checked
        << " bucket intervals cover the truth, floor " << kCoverageFloor;
    failures.push_back(msg.str());
  }
  return failures;
}

// --- Deployments -------------------------------------------------------------

namespace {

class InprocDeployment final : public Deployment {
 public:
  InprocDeployment(const Workload& workload, uint64_t seed,
                   const DeployOptions& options)
      : workload_(workload), sys_(Config(workload, seed, options)) {}

  localdb::Database& db(size_t client) override {
    return sys_.client(client).database();
  }

  void Submit() override {
    for (const QueryDef& def : workload_.queries) {
      sys_.SubmitQuery(BuildQuery(workload_, def), TableThreeParams());
    }
  }

  EpochOut RunEpoch(int64_t epoch) override {
    const system::EpochStats stats = sys_.RunEpoch(EpochNow(epoch));
    return EpochOut{stats.participants, stats.shares_consumed,
                    stats.fault_lost_mids, stats.fault_shares_delayed};
  }

  std::vector<aggregator::WindowedResult> Advance(int64_t epoch) override {
    sys_.AdvanceWatermark(workload_.WatermarkAfter(epoch));
    return sys_.TakeResults();
  }

  std::vector<aggregator::WindowedResult> FlushAll() override {
    sys_.Flush();
    return sys_.TakeResults();
  }

  uint64_t UplinkBytes() override { return sys_.ClientToProxyBytes(); }
  system::PrivApproxSystem* system() override { return &sys_; }

 private:
  static system::SystemConfig Config(const Workload& workload, uint64_t seed,
                                     const DeployOptions& options) {
    system::SystemConfig config;
    config.num_clients = workload.clients;
    config.num_proxies = kProxies;
    config.seed = seed;
    config.pipeline.num_worker_threads = Nproc();
    config.metrics.timeline = options.timeline;
    if (workload.fault.has_value()) {
      fault::FaultPlan plan = *workload.fault;
      plan.seed = seed;
      config.fault = plan;
    }
    return config;
  }

  const Workload& workload_;
  system::PrivApproxSystem sys_;
};

class TcpDeployment final : public Deployment {
 public:
  TcpDeployment(const Workload& workload, uint64_t seed)
      : workload_(workload),
        daemons_(workload.clients),
        fleet_(daemons_.FleetConfig(workload.clients, seed)) {}

  localdb::Database& db(size_t client) override {
    return fleet_.client(client).database();
  }

  void Submit() override {
    for (const QueryDef& def : workload_.queries) {
      fleet_.SubmitQuery(BuildQuery(workload_, def), TableThreeParams());
    }
  }

  EpochOut RunEpoch(int64_t epoch) override {
    const deploy::FleetEpochStats stats = fleet_.RunEpoch(EpochNow(epoch));
    return EpochOut{stats.participants, stats.shares_consumed, 0, 0};
  }

  std::vector<aggregator::WindowedResult> Advance(int64_t epoch) override {
    fleet_.AdvanceWatermark(workload_.WatermarkAfter(epoch));
    return fleet_.TakeResults();
  }

  std::vector<aggregator::WindowedResult> FlushAll() override {
    fleet_.Flush();
    return fleet_.TakeResults();
  }

  uint64_t UplinkBytes() override {
    return static_cast<uint64_t>(SumFamily(
        fleet_.MetricsText(), "privapprox_transport_bytes_out_total"));
  }

  std::string DaemonMetricsText() override { return FleetMetricsText(fleet_); }

 private:
  const Workload& workload_;
  LoopbackDaemons daemons_;
  deploy::FleetDriver fleet_;
};

}  // namespace

size_t Nproc() {
  // As nproc(1): the CPUs this process may run on.
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

CpuScope::CpuScope(size_t cpus) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t budget;
  CPU_ZERO(&budget);
  size_t taken = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && taken < cpus; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) {
      CPU_SET(cpu, &budget);
      ++taken;
    }
  }
  pinned_ = taken > 0 && sched_setaffinity(0, sizeof(budget), &budget) == 0;
}

CpuScope::~CpuScope() {
  if (pinned_) {
    sched_setaffinity(0, sizeof(saved_), &saved_);
  }
}

std::unique_ptr<Deployment> MakeDeployment(const Workload& workload,
                                           uint64_t seed,
                                           const DeployOptions& options) {
  if (options.tcp) {
    return std::make_unique<TcpDeployment>(workload, seed);
  }
  return std::make_unique<InprocDeployment>(workload, seed, options);
}

LoopbackDaemons::LoopbackDaemons(size_t population) {
  for (size_t j = 0; j < kProxies; ++j) {
    deploy::ProxyDaemonConfig config;
    config.proxy_index = j;
    proxyds_.push_back(std::make_unique<deploy::ProxyDaemon>(config));
    proxyds_.back()->Start();
    proxies_.push_back(deploy::Endpoint{"127.0.0.1", proxyds_.back()->port()});
  }
  deploy::AggregatorDaemonConfig config;
  config.proxies = proxies_;
  config.population = population;
  aggregatord_ = std::make_unique<deploy::AggregatorDaemon>(config);
  aggregatord_->Start();
}

LoopbackDaemons::~LoopbackDaemons() {
  aggregatord_->Stop();
  for (auto& proxyd : proxyds_) {
    proxyd->Stop();
  }
}

deploy::Endpoint LoopbackDaemons::aggregator() const {
  return deploy::Endpoint{"127.0.0.1", aggregatord_->port()};
}

deploy::FleetDriverConfig LoopbackDaemons::FleetConfig(size_t clients,
                                                       uint64_t seed) const {
  deploy::FleetDriverConfig config;
  config.num_clients = clients;
  config.seed = seed;
  config.proxies = proxies_;
  config.aggregator = aggregator();
  return config;
}

std::string FleetMetricsText(deploy::FleetDriver& fleet) {
  std::string text = fleet.MetricsText();
  for (size_t j = 0; j < kProxies; ++j) {
    text += fleet.ProxyMetricsText(j);
  }
  return text + fleet.AggregatorMetricsText();
}

double SumFamily(const std::string& text, const std::string& family) {
  double sum = 0.0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, family.size(), family) != 0 ||
        line.size() <= family.size()) {
      continue;
    }
    const char next = line[family.size()];
    if (next != ' ' && next != '{') {
      continue;
    }
    const size_t space = line.rfind(' ');
    sum += std::stod(line.substr(space + 1));
  }
  return sum;
}

}  // namespace perfbench
