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
// SIGINT/SIGTERM. An unknown flag or a malformed or out-of-range value
// prints the usage line and exits 2.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "deploy/aggregator_daemon.h"
#include "deploy/endpoint.h"

namespace {

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
  using privapprox::deploy::ParseFlag;
  using privapprox::deploy::ParseWholeNumber;
  privapprox::deploy::AggregatorDaemonConfig config;
  int i = 1;
  try {
    for (; i < argc; ++i) {
      std::string value;
      if (ParseFlag(argv[i], "port", value)) {
        // 0 binds an ephemeral port.
        config.port = static_cast<uint16_t>(ParseWholeNumber(value, 0, 65535));
      } else if (ParseFlag(argv[i], "proxy", value)) {
        config.proxies.push_back(privapprox::deploy::Endpoint::Parse(value));
      } else if (ParseFlag(argv[i], "population", value)) {
        config.population = ParseWholeNumber(value, 1);
      } else if (ParseFlag(argv[i], "confidence", value)) {
        const char* const end = value.data() + value.size();
        const auto [stop, error] =
            std::from_chars(value.data(), end, config.confidence);
        if (error != std::errc() || stop != end ||
            !std::isfinite(config.confidence)) {
          throw std::invalid_argument("want a finite number");
        }
      } else if (ParseFlag(argv[i], "host", value)) {
        config.bind_host = value;
      } else if (ParseFlag(argv[i], "data-dir", value)) {
        config.data_dir = value;
      } else if (ParseFlag(argv[i], "fsync", value)) {
        config.log.fsync = privapprox::storage::ParseFsyncPolicy(value);
      } else if (ParseFlag(argv[i], "fsync-every-n", value)) {
        config.log.fsync_every_n = ParseWholeNumber(value);
      } else if (ParseFlag(argv[i], "segment-bytes", value)) {
        config.log.max_segment_bytes = ParseWholeNumber(value);
      } else if (std::strcmp(argv[i], "--invert") == 0) {
        config.answers_inverted = true;
      } else {
        return Usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privapprox_aggregatord: %s: %s\n", argv[i],
                 e.what());
    return Usage();
  }
  if (config.proxies.size() < 2 || config.population == 0) {
    return Usage();
  }
  try {
    privapprox::deploy::AggregatorDaemon daemon(config);
    daemon.Start();
    privapprox::deploy::ServeUntilSignal(config.bind_host, daemon.port());
    daemon.Stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privapprox_aggregatord: %s\n", e.what());
    return 1;
  }
  return 0;
}
