// The repository benchmark: one seeded, closed-loop workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir D]
//
// --trace 0 sets the fleet up eleven times (setup_s is the median), runs
// round(S * the workload's epoch rate) timed epochs on the last fleet, and
// prints the end-to-end metrics. --trace 1 runs the traced parts instead (see
// README.md) and prints the per-layer metrics; spans go to --trace-dir.
// Either way the run ends with the correctness gate and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A failed check is named on stderr and the exit code is 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd_dispatch.h"
#include "ledger.h"
#include "workload.h"

using namespace perfbench;

namespace {

constexpr int kSetups = 11;
constexpr size_t kMinResults = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// CPU time the hypervisor gave to other guests (the steal column of
// /proc/stat) and all CPU time, summed over CPUs, in ticks. On a shared host
// steal stretches wall-clock metrics, so every run prints its share over the
// timed epochs.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  uint64_t value = 0;
  for (int i = 0; i < 10 && stat >> value; ++i) {
    ticks.total += value;
    if (i == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

// One set-up fleet and its answer accounting.
struct Fleet {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Checker> checker;
  AnswerCounts counts;
  int64_t last_epoch = 0;
  std::vector<int64_t> step_ns;  // wall time of each epoch's Step
};

// What the timed epochs of a fleet measured.
struct Timed {
  int64_t wall_ns = 0;  // sum over epochs of RunEpoch + watermark + results
  uint64_t shares = 0;
  uint64_t participants = 0;
  uint64_t uplink_bytes = 0;
  uint64_t allocs = 0;
  std::vector<double> result_ms;  // one sample per emitted result
};

void Feed(Fleet& s, Generator& generator, const Workload& w, int64_t epoch) {
  for (size_t c = 0; c < w.clients; ++c) {
    generator.Feed(epoch, c, s.deployment->db(c));
  }
}

// One closed-loop step: the epoch, the watermark advance, and the results.
// Feeding the next readings happens outside, untimed.
//
// A result's freshness sample runs from the start of the step of the epoch
// that delivered the window's last answers (EpochNow(that epoch) =
// window end - period) to the end of this step: the sum of those steps'
// durations. With a watermark lag of L epochs it spans L + 1 steps. Windows
// whose last answers came in the warm-up epoch give no sample.
void Step(Fleet& s, int64_t epoch, Timed* timed) {
  const uint64_t allocs = Allocs();
  const int64_t start = NowNs();
  const EpochOut out = s.deployment->RunEpoch(epoch);
  const std::vector<aggregator::WindowedResult> results =
      s.deployment->Advance(epoch);
  const int64_t end = NowNs();
  s.counts.attempted += out.participants;
  s.counts.lost += out.lost;
  s.counts.delayed_last = out.delayed;
  s.last_epoch = epoch;
  s.step_ns.resize(static_cast<size_t>(epoch) + 1);
  s.step_ns[static_cast<size_t>(epoch)] = end - start;
  s.checker->Add(results);
  if (timed != nullptr) {
    timed->allocs += Allocs() - allocs;
    timed->wall_ns += end - start;
    timed->shares += out.shares_consumed;
    timed->participants += out.participants;
    for (const aggregator::WindowedResult& r : results) {
      const int64_t delivered = r.window.end_ms / kPeriodMs - 2;
      if (delivered < 1 || delivered > epoch) {
        continue;
      }
      int64_t ns = 0;
      for (int64_t e = delivered; e <= epoch; ++e) {
        ns += s.step_ns[static_cast<size_t>(e)];
      }
      timed->result_ms.push_back(static_cast<double>(ns) / 1e6);
    }
  }
}

// Everything before the first timed epoch: daemons, fleet, seeding the client
// databases, query submission, and the warm-up epoch.
Fleet SetUp(const Workload& w, uint64_t seed, Generator& generator,
              const DeployOptions& options) {
  Fleet s;
  s.deployment = MakeDeployment(w, seed, options);
  Feed(s, generator, w, 0);
  s.deployment->Submit();
  s.checker = std::make_unique<Checker>(w, generator);
  Step(s, 0, nullptr);
  return s;
}

Timed RunTimed(Fleet& s, Generator& generator, const Workload& w,
               int64_t epochs, const std::function<void()>& after_epoch) {
  Timed timed;
  const uint64_t uplink = s.deployment->UplinkBytes();
  for (int64_t e = 1; e <= epochs; ++e) {
    Feed(s, generator, w, e);
    Step(s, e, &timed);
    if (after_epoch) {
      after_epoch();
    }
  }
  timed.uplink_bytes = s.deployment->UplinkBytes() - uplink;
  return timed;
}

int64_t TimedEpochs(const Workload& w, double seconds) {
  return std::max<int64_t>(1, std::llround(seconds * w.epochs_per_second));
}

double PerSecond(uint64_t n, int64_t ns) {
  return ns == 0 ? 0.0 : static_cast<double>(n) / Seconds(ns);
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Add(const std::string& part, uint64_t a, uint64_t f,
           const std::vector<std::string>& fs) {
    attempted += a;
    failed += f;
    for (const std::string& msg : fs) {
      failures.push_back(part + ": " + msg);
    }
  }
};

void PrintAnswers(const char* part, const Fleet& s) {
  std::printf(
      "answers part=%s attempted=%llu counted=%llu lost_to_faults=%llu "
      "in_flight=%llu failed=%llu ci_coverage=%.4f results=%zu\n",
      part, static_cast<unsigned long long>(s.counts.attempted),
      static_cast<unsigned long long>(s.checker->counted()),
      static_cast<unsigned long long>(s.counts.lost),
      static_cast<unsigned long long>(s.checker->in_flight()),
      static_cast<unsigned long long>(s.checker->failed()),
      s.checker->coverage(), s.checker->results());
}

// Flushes the fleet's last windows, runs the correctness gate, prints the
// answer accounting and adds it to `outcome` under `part`.
void Finish(const char* part, Fleet& s, Outcome& outcome) {
  s.checker->Add(s.deployment->FlushAll());
  const std::vector<std::string> failures =
      s.checker->Verify(s.last_epoch, s.counts);
  outcome.Add(part, s.counts.attempted, s.checker->failed(), failures);
  PrintAnswers(part, s);
}

void RunEndToEnd(const Workload& w, const Args& args, MetricList& metrics,
                 Outcome& outcome) {
  Generator generator(w, args.seed);
  DeployOptions options;
  options.tcp = w.tcp;
  const CpuScope cpus(kEndToEndCpus);
  std::vector<double> setup_s;
  Fleet s;
  for (int i = 0; i < kSetups; ++i) {
    s = Fleet();  // tear the previous fleet down first
    const int64_t start = NowNs();
    s = SetUp(w, args.seed, generator, options);
    setup_s.push_back(Seconds(NowNs() - start));
  }
  const int64_t epochs = TimedEpochs(w, args.seconds);
  const CpuTicks ticks_before = ReadCpuTicks();
  const Timed timed = RunTimed(s, generator, w, epochs, nullptr);
  const CpuTicks ticks_after = ReadCpuTicks();
  Finish("e2e", s, outcome);
  const double delivered =
      s.counts.attempted == 0 ? 0.0
                              : static_cast<double>(s.checker->counted()) /
                                    static_cast<double>(s.counts.attempted);
  if (timed.result_ms.size() < kMinResults) {
    outcome.failures.push_back("e2e: result_samples: " +
                               std::to_string(timed.result_ms.size()) +
                               " results, need " + std::to_string(kMinResults));
  }
  std::printf("samples setup_s=%zu result_ms=%zu timed_epochs=%lld "
              "timed_s=%.3f\n",
              setup_s.size(), timed.result_ms.size(),
              static_cast<long long>(epochs), Seconds(timed.wall_ns));
  const uint64_t ticks = ticks_after.total - ticks_before.total;
  std::printf("host steal_frac=%.3f\n",
              ticks == 0 ? 0.0
                         : static_cast<double>(ticks_after.steal -
                                               ticks_before.steal) /
                               static_cast<double>(ticks));
  std::printf("setup_s_samples");
  for (const double v : setup_s) {
    std::printf(" %.4f", v);
  }
  std::printf("\n");
  if (w.tcp) {
    const std::string text = s.deployment->DaemonMetricsText();
    std::printf("transport protocol_errors=%.0f reconnects=%.0f\n",
                SumFamily(text, "privapprox_transport_protocol_errors_total"),
                SumFamily(text, "privapprox_transport_reconnects_total"));
  }

  Put(metrics, "setup_s", Quantile(setup_s, 0.5), "s");
  Put(metrics, "shares_per_s", PerSecond(timed.shares, timed.wall_ns),
      "shares/s");
  Put(metrics, "result_ms_p50", Quantile(timed.result_ms, 0.5), "ms");
  Put(metrics, "result_ms_p90", Quantile(timed.result_ms, 0.9), "ms");
  Put(metrics, "peak_rss_mb", PeakRssMb(), "MB");
  Put(metrics, "uplink_bytes_per_answer",
      timed.participants == 0 ? 0.0
                              : static_cast<double>(timed.uplink_bytes) /
                                    static_cast<double>(timed.participants),
      "B");
  Put(metrics, "answers_delivered_frac", delivered, "ratio");
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

// The in-process system at nproc workers, untraced then traced, on the
// workload's fleet and queries. The traced system records its EpochTimeline
// and is read for the stage, channel, join-state and allocation metrics.
void RunSystemParts(const Workload& w, const Args& args, int64_t epochs,
                    MetricList& metrics, Outcome& outcome) {
  Generator generator(w, args.seed);
  DeployOptions options;
  double untraced_sps = 0.0;
  {
    Fleet s = SetUp(w, args.seed, generator, options);
    const Timed timed = RunTimed(s, generator, w, epochs, nullptr);
    untraced_sps = PerSecond(timed.shares, timed.wall_ns);
    Finish("system", s, outcome);
  }

  options.timeline = true;
  Fleet s = SetUp(w, args.seed, generator, options);
  system::PrivApproxSystem& sys = *s.deployment->system();
  metrics::Registry& registry = sys.metrics_registry();
  const auto stage = [&](const char* name) -> metrics::Histogram& {
    return registry.GetHistogram("privapprox_stage_ns", "",
                                 {{"stage", name}});
  };
  const char* stages[] = {"answer_shard", "proxy_forward", "agg_consume"};
  const double workers[] = {static_cast<double>(sys.num_worker_threads()),
                            static_cast<double>(kProxies), 1.0};
  uint64_t stage_before[3];
  for (int i = 0; i < 3; ++i) {
    stage_before[i] = stage(stages[i]).Sum();
  }
  const uint64_t epoch_before = stage("epoch").Sum();
  const uint64_t expired_before = sys.aggregator().join_stats().evicted_partial;
  double pending_sum = 0.0;
  const Timed timed = RunTimed(s, generator, w, epochs, [&] {
    pending_sum += static_cast<double>(sys.aggregator().pending_join_groups());
  });
  const double epoch_ns =
      static_cast<double>(stage("epoch").Sum() - epoch_before);
  const double traced_sps = PerSecond(timed.shares, timed.wall_ns);
  const double n = static_cast<double>(epochs);

  Put(metrics, "aggregator.pending_join_groups", pending_sum / n, "count");
  Put(metrics, "engine.join_expired",
      static_cast<double>(sys.aggregator().join_stats().evicted_partial -
                          expired_before) /
          n,
      "count");
  Put(metrics, "epoch.allocs_per_share",
      timed.shares == 0 ? 0.0
                        : static_cast<double>(timed.allocs) /
                              static_cast<double>(timed.shares),
      "allocs");
  for (int i = 0; i < 3; ++i) {
    const double busy =
        static_cast<double>(stage(stages[i]).Sum() - stage_before[i]);
    Put(metrics, std::string("system.stage.") + stages[i] + ".busy_frac",
        epoch_ns == 0.0 ? 0.0 : busy / epoch_ns / workers[i], "ratio");
  }
  std::vector<std::string> channels = {"tasks"};
  for (size_t j = 0; j < kProxies; ++j) {
    channels.push_back("to_proxy" + std::to_string(j));
  }
  channels.push_back("notices");
  for (const std::string& channel : channels) {
    Put(metrics, "system.channel." + channel + ".depth_hwm",
        static_cast<double>(
            registry
                .GetGauge("privapprox_channel_depth_hwm", "",
                          {{"channel", channel}})
                .Value()),
        "count");
  }
  Put(metrics, "system.shares_per_s", traced_sps, "shares/s");
  Put(metrics, "system.timeline_overhead_frac",
      traced_sps == 0.0 ? 0.0 : untraced_sps / traced_sps - 1.0, "ratio");

  const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-system.json";
  if (!WriteFile(path, sys.TimelineJson())) {
    outcome.failures.push_back("trace: cannot write " + path);
  }
  Finish("system_traced", s, outcome);
}

void PrintPart(const char* part, const PartOutcome& outcome) {
  std::printf("answers part=%s attempted=%llu failed=%llu\n", part,
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
}

void RunTraced(const Workload& w, const Args& args, const std::string& tags,
               MetricList& metrics, Outcome& outcome) {
  const int64_t epochs =
      std::clamp<int64_t>(TimedEpochs(w, args.seconds) / 4, 8, 40);
  RunSystemParts(w, args, epochs, metrics, outcome);

  SpanRecorder spans;
  {
    Generator generator(w, args.seed);
    const PartOutcome part =
        RunInprocLedger(w, args.seed, generator, epochs, spans, metrics);
    outcome.Add("inproc_ledger", part.attempted, part.failed, part.failures);
    PrintPart("inproc_ledger", part);
  }
  {
    Generator generator(w, args.seed);
    const PartOutcome part =
        RunTcpLedger(w, args.seed, generator, epochs, spans, metrics);
    outcome.Add("tcp_ledger", part.attempted, part.failed, part.failures);
    PrintPart("tcp_ledger", part);
  }
  const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed) + "-ledger.json";
  if (!WriteFile(path, spans.ToChromeTracingJson(tags))) {
    outcome.failures.push_back("trace: cannot write " + path);
  }
  std::printf("traced_epochs=%lld spans=%s\n", static_cast<long long>(epochs),
              path.c_str());
}

std::string Json(const Outcome& outcome, const MetricList& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (outcome.failures.empty() ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
        << "\": {\"value\": " << metrics[i].second.value << ", \"unit\": \""
        << metrics[i].second.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  if (args.trace != PERFBENCH_TRACED) {
    std::fprintf(stderr, "%s: --trace %d needs the %s driver\n", argv[0],
                 args.trace, args.trace ? "perfbench_traced" : "perfbench");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  char tags[512];
  std::snprintf(
      tags, sizeof(tags),
      "workload=%s seed=%llu trace=%d nproc=%zu cpus=%zu simd=%s "
      "transport=%s "
      "build=%s clients=%zu queries=%zu window_epochs=%lld faults=%s "
      "coverage_floor=%.2f",
      workload->name.c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, Nproc(), args.trace == 0 ? kEndToEndCpus : Nproc(),
      simd::IsaName(simd::ActiveIsa()),
      workload->tcp ? "tcp" : "inproc", PERFBENCH_BUILD_TYPE,
      workload->clients, workload->queries.size(),
      static_cast<long long>(workload->window_epochs),
      workload->fault.has_value() ? "on" : "off", kCoverageFloor);
  std::printf("perfbench %s\n", tags);

  MetricList metrics;
  Outcome outcome;
  try {
    if (args.trace == 0) {
      RunEndToEnd(*workload, args, metrics, outcome);
    } else {
      RunTraced(*workload, args, tags, metrics, outcome);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "FAILED CHECK %s\n", failure.c_str());
  }
  std::printf("%s\n", Json(outcome, metrics).c_str());
  std::fflush(stdout);
  return outcome.failures.empty() ? 0 : 1;
}
