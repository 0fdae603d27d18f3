#include "deploy/endpoint.h"

#include <semaphore.h>

#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace privapprox::deploy {

Endpoint Endpoint::Parse(const std::string& spec) {
  Endpoint out;
  std::string_view port_part = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    out.host = spec.substr(0, colon);
    port_part.remove_prefix(colon + 1);
  }
  if (out.host.empty()) {
    throw std::invalid_argument("Endpoint::Parse: no host in '" + spec + "'");
  }
  out.port = static_cast<uint16_t>(ParseWholeNumber(port_part, 1, 65535));
  return out;
}

bool ParseFlag(const char* arg, const char* name, std::string& value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) {
    return false;
  }
  value = arg + prefix.size();
  return true;
}

uint64_t ParseWholeNumber(std::string_view text, uint64_t min, uint64_t max) {
  // Base-10 from_chars into an unsigned type takes digits only: no sign, no
  // space, no "0x".
  uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < min || value > max) {
    throw std::invalid_argument("want a whole number in [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  }
  return value;
}

void ServeUntilSignal(const std::string& host, uint16_t port) {
  static sem_t stop;
  sem_init(&stop, 0, 0);
  const auto post = [](int) { sem_post(&stop); };
  std::signal(SIGINT, post);
  std::signal(SIGTERM, post);
  std::printf("listening %s:%u\n", host.c_str(), static_cast<unsigned>(port));
  std::fflush(stdout);
  while (sem_wait(&stop) != 0 && errno == EINTR) {
  }
}

}  // namespace privapprox::deploy
