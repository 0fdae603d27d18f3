// Workload definitions, the seeded reading generator with its ground truth,
// the correctness gate, and the two end-to-end deployments the benchmark
// drives (the in-process PrivApproxSystem and the loopback-TCP fleet).
//
// Time model: epoch e runs at event time EpochNow(e) = (e + 1) * 10 s. Each
// client gets one reading per epoch, inserted half a period before EpochNow(e),
// so that a query window of W epochs, which clients evaluate over
// [now - W periods, now), holds exactly the readings of epochs e-W+1 .. e.
// The aggregator remembers joined MIDs for its 60 s join timeout, so a 10 s
// period keeps six epochs of them; per-epoch cost is steady after that.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aggregator/aggregator.h"
#include "core/query.h"
#include "deploy/aggregator_daemon.h"
#include "deploy/fleet_driver.h"
#include "deploy/proxy_daemon.h"
#include "fault/fault.h"
#include "localdb/database.h"
#include "system/system.h"

namespace perfbench {

using namespace privapprox;

constexpr int64_t kPeriodMs = 10000;
constexpr size_t kProxies = 2;
// Share of (window, bucket) confidence intervals that must cover the
// generator's truth. The intervals are nominal 95%; the floor leaves room for
// the correlation between overlapping sliding windows.
constexpr double kCoverageFloor = 0.85;

inline int64_t EpochNow(int64_t epoch) { return (epoch + 1) * kPeriodMs; }

struct QueryDef {
  uint64_t qid = 0;
  std::string sql;
  int column = 0;             // 0 = speed, 1 = load
  bool speed_filter = false;  // WHERE speed >= kFilterSpeed
  size_t buckets = 10;        // equi-width buckets over [0, 100) + overflow
};

struct Workload {
  std::string name;
  bool tcp = false;
  size_t clients = 0;
  int64_t window_epochs = 1;  // window length; the slide is one epoch
  // Epochs the watermark trails the newest epoch, so shares deferred by a
  // fault still reach their windows before those fire.
  int64_t watermark_lag_epochs = 0;
  // Timed epochs per requested second. The epoch count of a run is fixed by
  // --seconds, not by the clock, so every commit does the same work and
  // memory and result counts do not move with speed.
  double epochs_per_second = 1.0;
  std::vector<QueryDef> queries;
  std::optional<fault::FaultPlan> fault;

  int64_t WatermarkAfter(int64_t epoch) const {
    return EpochNow(epoch) + kPeriodMs * (1 - watermark_lag_epochs);
  }
};

// Null for an unknown name.
const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

core::Query BuildQuery(const Workload& workload, const QueryDef& def);
// Table 3 configuration: s = 0.6, p = 0.9, q = 0.6.
core::ExecutionParams TableThreeParams();

// Seeded readings: one (speed, load) row per client per epoch, a pure
// function of (seed, client, epoch). Also computes, per epoch, how many
// clients' truthful answers fall in each bucket of each query.
class Generator {
 public:
  Generator(const Workload& workload, uint64_t seed);

  // Inserts epoch `epoch`'s reading into `db` for client `client` and evicts
  // rows older than the workload window. Creates the table on first use.
  void Feed(int64_t epoch, size_t client, localdb::Database& db) const;

  // truth[query index][bucket]: truthful answers in that bucket over the whole
  // population at `epoch`. Computed once per epoch and cached.
  const std::vector<std::vector<double>>& Truth(int64_t epoch);

 private:
  struct Reading {
    int speed = 0;
    int load = 0;
  };
  Reading At(size_t client, int64_t epoch) const;

  const Workload& workload_;
  uint64_t seed_;
  std::vector<std::vector<size_t>> bucket_of_;  // [query][integer value]
  std::map<int64_t, std::vector<std::vector<double>>> truth_;
};

// Answer accounting of one deployment's whole life (warm-up included).
struct AnswerCounts {
  uint64_t attempted = 0;     // participating (client, query) answers
  uint64_t lost = 0;          // (query, MID) pairs the fault plan lost
  uint64_t delayed_last = 0;  // shares the fault plan deferred past the end
};

// The correctness gate, fed with every result a deployment emits.
class Checker {
 public:
  Checker(const Workload& workload, Generator& generator);

  void Add(const std::vector<aggregator::WindowedResult>& results);

  // Runs the three checks once every window has been flushed. Returns the
  // names and details of failed checks (empty = pass).
  std::vector<std::string> Verify(int64_t last_epoch,
                                  const AnswerCounts& counts);

  // Answers counted in an emitted result (each lands in window_epochs
  // windows). Valid after Verify.
  uint64_t counted() const { return counted_; }
  uint64_t in_flight() const { return in_flight_; }
  // Attempted answers neither counted, lost by the plan, nor in flight.
  uint64_t failed() const { return failed_; }
  double coverage() const { return coverage_; }
  size_t results() const { return results_.size(); }

 private:
  const Workload& workload_;
  Generator& generator_;
  std::vector<aggregator::WindowedResult> results_;
  uint64_t counted_ = 0;
  uint64_t in_flight_ = 0;
  uint64_t failed_ = 0;
  double coverage_ = 0.0;
};

// What one epoch moved, common to both deployments.
struct EpochOut {
  uint64_t participants = 0;
  uint64_t shares_consumed = 0;
  uint64_t lost = 0;
  uint64_t delayed = 0;
};

// One fully set-up fleet: the in-process system or the loopback-TCP
// daemons plus their fleet driver.
class Deployment {
 public:
  virtual ~Deployment() = default;
  virtual localdb::Database& db(size_t client) = 0;
  virtual void Submit() = 0;
  virtual EpochOut RunEpoch(int64_t epoch) = 0;
  // Advances the watermark after `epoch` and returns the results it fired.
  virtual std::vector<aggregator::WindowedResult> Advance(int64_t epoch) = 0;
  virtual std::vector<aggregator::WindowedResult> FlushAll() = 0;
  // Client -> proxy bytes so far.
  virtual uint64_t UplinkBytes() = 0;
  // Null for the TCP deployment.
  virtual system::PrivApproxSystem* system() { return nullptr; }
  // Every daemon's /metrics text plus the fleet driver's, read through the
  // metrics control verb; empty in process.
  virtual std::string DaemonMetricsText() { return ""; }
};

// Two proxy daemons and one aggregator daemon on ephemeral loopback ports,
// running inside this process.
class LoopbackDaemons {
 public:
  explicit LoopbackDaemons(size_t population);
  ~LoopbackDaemons();

  LoopbackDaemons(const LoopbackDaemons&) = delete;
  LoopbackDaemons& operator=(const LoopbackDaemons&) = delete;

  const std::vector<deploy::Endpoint>& proxies() const { return proxies_; }
  deploy::Endpoint aggregator() const;
  deploy::FleetDriverConfig FleetConfig(size_t clients, uint64_t seed) const;

 private:
  std::vector<std::unique_ptr<deploy::ProxyDaemon>> proxyds_;
  std::vector<deploy::Endpoint> proxies_;
  std::unique_ptr<deploy::AggregatorDaemon> aggregatord_;
};

// The daemons' and the fleet driver's /metrics text, concatenated.
std::string FleetMetricsText(deploy::FleetDriver& fleet);

struct DeployOptions {
  bool tcp = false;
  bool timeline = false;  // in-process only: record EpochTimeline spans
};

// CPUs this process may run on, as nproc(1) counts them. Inside a CpuScope
// that is the scope's budget; the in-process pipeline runs one worker each.
size_t Nproc();

// CPUs of the end-to-end run and of the TCP ledger. On a shared VM the
// hypervisor steals time in proportion to the vCPUs a guest keeps busy; with
// two or four busy, that steal moved in-process throughput by up to 2x from
// one minute to the next, while one busy vCPU saw at most 3% steal
// (README.md, "CPU budget"). The TCP deployment loses no parallelism on one
// CPU: it is a strict request/reply chain with one runnable thread at a time.
constexpr size_t kEndToEndCpus = 1;

// Confines the calling thread, and every thread it starts while the scope
// lives, to the first `cpus` CPUs of its current set; restores the set on
// destruction.
class CpuScope {
 public:
  explicit CpuScope(size_t cpus);
  ~CpuScope();
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

std::unique_ptr<Deployment> MakeDeployment(const Workload& workload,
                                           uint64_t seed,
                                           const DeployOptions& options);

// Sums every series of one family in a Prometheus-style text exposition.
double SumFamily(const std::string& text, const std::string& family);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
