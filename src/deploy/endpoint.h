// What the deploy binaries share: a (host, port) pair naming one daemon,
// shared by every deploy-layer config; the flag reader and the checked
// whole-number parser behind every numeric flag; and the daemons' serve
// loop. Endpoint::Parse accepts "host:port" and bare "port" (host defaults
// to loopback), the two spellings the daemon flags take.

#ifndef PRIVAPPROX_DEPLOY_ENDPOINT_H_
#define PRIVAPPROX_DEPLOY_ENDPOINT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace privapprox::deploy {

struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  // Throws std::invalid_argument on a missing host or a port that
  // ParseWholeNumber refuses in [1, 65535].
  static Endpoint Parse(const std::string& spec);
};

// Reads `arg` of the form "--<name>=<value>" into `value`; false when `arg`
// is not that flag.
bool ParseFlag(const char* arg, const char* name, std::string& value);

// Parses a decimal whole number in [min, max]. Only digits count: a sign,
// a space, any other byte, an empty string or a value out of range throws
// std::invalid_argument.
uint64_t ParseWholeNumber(
    std::string_view text, uint64_t min = 0,
    uint64_t max = std::numeric_limits<uint64_t>::max());

// Prints "listening <host>:<port>" (launch scripts wait for this line),
// then blocks until the process receives SIGINT or SIGTERM.
void ServeUntilSignal(const std::string& host, uint16_t port);

}  // namespace privapprox::deploy

#endif  // PRIVAPPROX_DEPLOY_ENDPOINT_H_
