// privapprox_aggregatord: the PrivApprox aggregator as a standalone
// process, dialing one TCP connection at each proxy daemon.
//
//   privapprox_aggregatord --port=9200 --proxy=127.0.0.1:9100
//       --proxy=127.0.0.1:9101 --population=600 [--confidence=0.95]
//       [--host=127.0.0.1] [--invert] [--data-dir=DIR]
//       [--fsync=never|on_rotate|every_n_records|always]
//       [--fsync-every-n=N] [--segment-bytes=B]
//
// --data-dir turns on the query journal: announcements persist to
// <dir>/query_journal and a restarted daemon re-registers them before the
// "listening" line prints.
//
// --proxy order defines proxy indices (the first --proxy is proxy 0).
// Each query lane joins in one shard per partition of the proxies' lane
// topics (proxyd's --partitions, which must agree across the proxies).
// Prints "listening <host>:<port>" once ready, then serves until
// SIGINT/SIGTERM.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <semaphore.h>
#include <string>

#include "deploy/aggregator_daemon.h"

namespace {

sem_t g_stop_sem;

void HandleSignal(int) { sem_post(&g_stop_sem); }

bool ParseFlag(const char* arg, const char* name, std::string& value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) {
    return false;
  }
  value = arg + prefix.size();
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: privapprox_aggregatord --port=P --proxy=H:P "
               "--proxy=H:P [...] --population=N [--confidence=C] "
               "[--host=H] [--invert] [--data-dir=DIR] "
               "[--fsync=POLICY] [--fsync-every-n=N] [--segment-bytes=B]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  privapprox::deploy::AggregatorDaemonConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "port", value)) {
      config.port = static_cast<uint16_t>(std::stoul(value));
    } else if (ParseFlag(argv[i], "proxy", value)) {
      config.proxies.push_back(privapprox::deploy::Endpoint::Parse(value));
    } else if (ParseFlag(argv[i], "population", value)) {
      config.population = std::stoul(value);
    } else if (ParseFlag(argv[i], "confidence", value)) {
      config.confidence = std::stod(value);
    } else if (ParseFlag(argv[i], "host", value)) {
      config.bind_host = value;
    } else if (ParseFlag(argv[i], "data-dir", value)) {
      config.data_dir = value;
    } else if (ParseFlag(argv[i], "fsync", value)) {
      config.log.fsync = privapprox::storage::ParseFsyncPolicy(value);
    } else if (ParseFlag(argv[i], "fsync-every-n", value)) {
      config.log.fsync_every_n = std::stoull(value);
    } else if (ParseFlag(argv[i], "segment-bytes", value)) {
      config.log.max_segment_bytes = std::stoull(value);
    } else if (std::strcmp(argv[i], "--invert") == 0) {
      config.answers_inverted = true;
    } else {
      return Usage();
    }
  }
  if (config.proxies.size() < 2 || config.population == 0) {
    return Usage();
  }
  try {
    privapprox::deploy::AggregatorDaemon daemon(config);
    daemon.Start();
    std::printf("listening %s:%u\n", config.bind_host.c_str(),
                static_cast<unsigned>(daemon.port()));
    std::fflush(stdout);
    sem_init(&g_stop_sem, 0, 0);
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    while (sem_wait(&g_stop_sem) != 0 && errno == EINTR) {
    }
    daemon.Stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privapprox_aggregatord: %s\n", e.what());
    return 1;
  }
  return 0;
}
