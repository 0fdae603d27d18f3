// privapprox_proxyd: one PrivApprox proxy as a standalone process.
//
//   privapprox_proxyd --index=0 --port=9100 [--host=127.0.0.1]
//                     [--partitions=4] [--data-dir=DIR]
//                     [--fsync=never|on_rotate|every_n_records|always]
//                     [--fsync-every-n=N] [--segment-bytes=B]
//
// --data-dir turns on the durable topic log: every topic spills to
// <dir>/<topic>/p<k> and startup recovers a previous incarnation's state
// (replay, lane rediscovery, consumer repositioning) before the
// "listening" line prints.
//
// Prints "listening <host>:<port>" once ready (the socket-smoke harness
// waits for this line), then serves until SIGINT/SIGTERM. An unknown flag
// or a malformed or out-of-range value prints the usage line and exits 2.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>

#include "deploy/endpoint.h"
#include "deploy/proxy_daemon.h"
#include "transport/wire.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: privapprox_proxyd --index=N --port=P "
               "[--host=H] [--partitions=K] [--data-dir=DIR] "
               "[--fsync=POLICY] [--fsync-every-n=N] [--segment-bytes=B]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using privapprox::deploy::ParseFlag;
  using privapprox::deploy::ParseWholeNumber;
  privapprox::deploy::ProxyDaemonConfig config;
  int i = 1;
  try {
    for (; i < argc; ++i) {
      std::string value;
      if (ParseFlag(argv[i], "index", value)) {
        config.proxy_index = ParseWholeNumber(value);
      } else if (ParseFlag(argv[i], "port", value)) {
        // 0 binds an ephemeral port.
        config.port = static_cast<uint16_t>(ParseWholeNumber(value, 0, 65535));
      } else if (ParseFlag(argv[i], "host", value)) {
        config.bind_host = value;
      } else if (ParseFlag(argv[i], "partitions", value)) {
        // The most partitions a peer may ask for over the wire.
        config.num_partitions = ParseWholeNumber(
            value, 1, privapprox::transport::kMaxWirePartitions);
      } else if (ParseFlag(argv[i], "data-dir", value)) {
        config.data_dir = value;
      } else if (ParseFlag(argv[i], "fsync", value)) {
        config.log.fsync = privapprox::storage::ParseFsyncPolicy(value);
      } else if (ParseFlag(argv[i], "fsync-every-n", value)) {
        config.log.fsync_every_n = ParseWholeNumber(value);
      } else if (ParseFlag(argv[i], "segment-bytes", value)) {
        config.log.max_segment_bytes = ParseWholeNumber(value);
      } else {
        return Usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privapprox_proxyd: %s: %s\n", argv[i], e.what());
    return Usage();
  }
  try {
    privapprox::deploy::ProxyDaemon daemon(config);
    daemon.Start();
    privapprox::deploy::ServeUntilSignal(config.bind_host, daemon.port());
    daemon.Stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "privapprox_proxyd: %s\n", e.what());
    return 1;
  }
  return 0;
}
