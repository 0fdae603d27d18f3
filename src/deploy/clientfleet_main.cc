// privapprox_clientfleet: drives a deterministic simulated client fleet
// against running proxy/aggregator daemons over TCP.
//
//   privapprox_clientfleet --proxy=127.0.0.1:9100 --proxy=127.0.0.1:9101
//       --aggregator=127.0.0.1:9200 --clients=600 [--epochs=3] [--seed=42]
//       [--compare-inproc] [--metrics-dir=DIR] [--results-out=FILE]
//       [--retention] [--chaos-cmd=CMD] [--chaos-epoch=E]
//       [--chaos-point=after_produce|before_drain]
//
// Chaos (crash-restart CI): --chaos-cmd runs a shell command exactly once,
// at epoch --chaos-epoch, from the --chaos-point seam inside RunEpoch —
// after the epoch's shares are produced/acked, or right before the
// aggregator drain. The command typically kill -9s one daemon and restarts
// it on the same port and --data-dir; the driver's control retries absorb
// the one failed RPC the restart costs. --results-out writes the final
// result wire bytes to a file so an interrupted run can be byte-compared
// with an uninterrupted one. --retention runs a fleet-wide retention sweep
// after every epoch (and prints segments deleted).
//
// The workload is fixed (speed telemetry, one windowed query) and seeded,
// so two runs against the same daemon topology are identical. With
// --compare-inproc the same fleet also runs through an in-process
// PrivApproxSystem and the two result streams are compared byte-for-byte
// (result_wire serialization covers every IEEE-754 bit); exit status 1 on
// any mismatch — this is the CI socket-smoke gate. --metrics-dir writes
// each daemon's /metrics dump (fetched over the control channel) plus the
// fleet's own transport counters as artifact files. An unknown flag or a
// malformed or out-of-range value prints the usage line and exits 2.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/query.h"
#include "deploy/endpoint.h"
#include "deploy/fleet_driver.h"
#include "deploy/result_wire.h"
#include "localdb/database.h"
#include "system/system.h"

namespace {

using privapprox::deploy::Endpoint;
using privapprox::deploy::FleetDriver;
using privapprox::deploy::FleetDriverConfig;
using privapprox::deploy::FleetEpochStats;
using privapprox::deploy::ParseFlag;
using privapprox::deploy::ParseWholeNumber;

privapprox::core::Query SpeedQuery() {
  return privapprox::core::QueryBuilder()
      .WithId(1)
      .WithSql("SELECT speed FROM vehicle")
      .WithAnswerFormat(
          privapprox::core::AnswerFormat::UniformNumeric(0, 100, 10, true))
      .WithFrequencyMs(1000)
      .WithWindowMs(1000)
      .WithSlideMs(1000)
      .Build();
}

privapprox::core::ExecutionParams Params() {
  privapprox::core::ExecutionParams params;
  params.sampling_fraction = 0.9;
  params.randomization = {0.85, 0.5};
  return params;
}

// Deterministic per-client telemetry, applied identically to the fleet and
// the in-process reference so their truthful answers agree.
void FillDatabase(privapprox::localdb::Database& db, size_t client_index) {
  db.CreateTable("vehicle", {"speed"});
  db.GetTable("vehicle").Insert(
      500, {privapprox::localdb::Value(
               static_cast<double>((client_index * 7) % 100))});
}

int Usage() {
  std::fprintf(stderr,
               "usage: privapprox_clientfleet --proxy=H:P --proxy=H:P [...] "
               "--aggregator=H:P --clients=N [--epochs=E] [--seed=S] "
               "[--compare-inproc] [--metrics-dir=DIR] [--results-out=FILE] "
               "[--retention] [--chaos-cmd=CMD] [--chaos-epoch=E] "
               "[--chaos-point=after_produce|before_drain]\n");
  return 2;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  FleetDriverConfig config;
  Endpoint aggregator;
  size_t epochs = 3;
  bool compare_inproc = false;
  bool retention = false;
  std::string metrics_dir;
  std::string results_out;
  std::string chaos_cmd;
  std::string chaos_point = "after_produce";
  size_t chaos_epoch = 0;
  int i = 1;
  try {
    for (; i < argc; ++i) {
      std::string value;
      if (ParseFlag(argv[i], "proxy", value)) {
        config.proxies.push_back(Endpoint::Parse(value));
      } else if (ParseFlag(argv[i], "aggregator", value)) {
        config.aggregator = Endpoint::Parse(value);
      } else if (ParseFlag(argv[i], "clients", value)) {
        config.num_clients = ParseWholeNumber(value, 1);
      } else if (ParseFlag(argv[i], "epochs", value)) {
        epochs = ParseWholeNumber(value);
      } else if (ParseFlag(argv[i], "seed", value)) {
        config.seed = ParseWholeNumber(value);
      } else if (ParseFlag(argv[i], "metrics-dir", value)) {
        metrics_dir = value;
      } else if (ParseFlag(argv[i], "results-out", value)) {
        results_out = value;
      } else if (ParseFlag(argv[i], "chaos-cmd", value)) {
        chaos_cmd = value;
      } else if (ParseFlag(argv[i], "chaos-epoch", value)) {
        chaos_epoch = ParseWholeNumber(value);
      } else if (ParseFlag(argv[i], "chaos-point", value)) {
        chaos_point = value;
      } else if (std::strcmp(argv[i], "--retention") == 0) {
        retention = true;
      } else if (std::strcmp(argv[i], "--compare-inproc") == 0) {
        compare_inproc = true;
      } else {
        return Usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privapprox_clientfleet: %s: %s\n", argv[i],
                 e.what());
    return Usage();
  }
  if (config.proxies.size() < 2 || config.aggregator.port == 0 ||
      config.num_clients == 0) {
    return Usage();
  }
  if (chaos_point != "after_produce" && chaos_point != "before_drain") {
    return Usage();
  }

  // The chaos hook fires once, at the chosen epoch and seam. The kill +
  // restart command runs synchronously (std::system), so by the time the
  // hook returns the daemon is back on its port and the driver's retried
  // control calls reconnect to it.
  size_t current_epoch = 0;
  bool chaos_fired = false;
  const auto fire_chaos = [&] {
    if (chaos_fired || current_epoch != chaos_epoch) {
      return;
    }
    chaos_fired = true;
    std::printf("chaos: epoch %zu %s: %s\n", current_epoch,
                chaos_point.c_str(), chaos_cmd.c_str());
    std::fflush(stdout);
    const int rc = std::system(chaos_cmd.c_str());
    if (rc != 0) {
      throw std::runtime_error("chaos command failed (exit " +
                               std::to_string(rc) + ")");
    }
  };
  if (!chaos_cmd.empty()) {
    config.control_retries = 3;
    if (chaos_point == "after_produce") {
      config.after_produce_hook = fire_chaos;
    } else {
      config.before_drain_hook = fire_chaos;
    }
  }

  try {
    FleetDriver fleet(config);
    for (size_t i = 0; i < fleet.num_clients(); ++i) {
      FillDatabase(fleet.client(i).database(), i);
    }
    fleet.SubmitQuery(SpeedQuery(), Params());

    uint64_t total_shares = 0;
    const auto start = std::chrono::steady_clock::now();
    for (size_t e = 0; e < epochs; ++e) {
      current_epoch = e;
      const FleetEpochStats stats =
          fleet.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
      total_shares += stats.shares_sent;
      std::printf("epoch %zu: participants=%zu sent=%llu forwarded=%llu "
                  "consumed=%llu\n",
                  e, stats.participants,
                  static_cast<unsigned long long>(stats.shares_sent),
                  static_cast<unsigned long long>(stats.shares_forwarded),
                  static_cast<unsigned long long>(stats.shares_consumed));
      if (retention) {
        std::printf("epoch %zu: retention deleted %llu segment(s)\n", e,
                    static_cast<unsigned long long>(fleet.AdvanceRetention()));
      }
    }
    if (!chaos_cmd.empty() && !chaos_fired) {
      throw std::logic_error("chaos command never fired (--chaos-epoch >= "
                             "--epochs?)");
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    fleet.Flush();
    const std::vector<privapprox::aggregator::WindowedResult> results =
        fleet.TakeResults();
    const std::vector<uint8_t> wire =
        privapprox::deploy::SerializeResults(results);
    std::printf("results=%zu shares=%llu elapsed_s=%.3f shares_per_sec=%.0f\n",
                results.size(), static_cast<unsigned long long>(total_shares),
                seconds, seconds > 0 ? total_shares / seconds : 0.0);

    if (!results_out.empty()) {
      std::ofstream out(results_out, std::ios::binary);
      out.write(reinterpret_cast<const char*>(wire.data()),
                static_cast<std::streamsize>(wire.size()));
      if (!out) {
        throw std::runtime_error("cannot write " + results_out);
      }
    }

    if (!metrics_dir.empty()) {
      std::filesystem::create_directories(metrics_dir);
      for (size_t j = 0; j < config.proxies.size(); ++j) {
        WriteFile(metrics_dir + "/proxyd" + std::to_string(j) + ".metrics",
                  fleet.ProxyMetricsText(j));
        WriteFile(metrics_dir + "/proxyd" + std::to_string(j) + ".offsets",
                  fleet.ProxySnapshotText(j));
      }
      WriteFile(metrics_dir + "/aggregatord.metrics",
                fleet.AggregatorMetricsText());
      WriteFile(metrics_dir + "/aggregatord.offsets",
                fleet.AggregatorSnapshotText());
      WriteFile(metrics_dir + "/clientfleet.metrics", fleet.MetricsText());
    }

    if (compare_inproc) {
      privapprox::system::SystemConfig sys_config;
      sys_config.num_clients = config.num_clients;
      sys_config.num_proxies = config.proxies.size();
      sys_config.seed = config.seed;
      privapprox::system::PrivApproxSystem sys(sys_config);
      for (size_t i = 0; i < config.num_clients; ++i) {
        FillDatabase(sys.client(i).database(), i);
      }
      sys.SubmitQuery(SpeedQuery(), Params());
      for (size_t e = 0; e < epochs; ++e) {
        sys.RunEpoch(static_cast<int64_t>(1000 * (e + 1)));
      }
      sys.Flush();
      const std::vector<uint8_t> reference =
          privapprox::deploy::SerializeResults(sys.TakeResults());
      if (wire != reference) {
        std::fprintf(stderr,
                     "MISMATCH: socket deployment diverged from in-process "
                     "run (%zu vs %zu wire bytes)\n",
                     wire.size(), reference.size());
        return 1;
      }
      std::printf("compare-inproc: OK (%zu result(s), bit-identical)\n",
                  results.size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privapprox_clientfleet: %s\n", e.what());
    return 1;
  }
  return 0;
}
