// The deploy binaries' command lines: the checked whole-number parser and
// the endpoint parser every numeric flag goes through, and each binary's
// answer to a malformed value — the usage line and exit status 2, with no
// daemon started.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "deploy/endpoint.h"

namespace privapprox::deploy {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

TEST(FlagsTest, WholeNumberTable) {
  struct Accepted {
    const char* text;
    uint64_t min, max, value;
  };
  for (const Accepted& c : {Accepted{"0", 0, 65535, 0},
                            Accepted{"65535", 0, 65535, 65535},
                            Accepted{"007", 0, 10, 7},
                            Accepted{"1", 1, 1024, 1},
                            Accepted{"1024", 1, 1024, 1024},
                            Accepted{"18446744073709551615", 0, kMax, kMax}}) {
    EXPECT_EQ(ParseWholeNumber(c.text, c.min, c.max), c.value) << c.text;
  }
  struct Refused {
    const char* text;
    uint64_t min, max;
  };
  for (const Refused& c : {Refused{"", 0, kMax},
                           Refused{"abc", 0, kMax},
                           Refused{"-1", 0, kMax},
                           Refused{"+1", 0, kMax},
                           Refused{" 1", 0, kMax},
                           Refused{"1 ", 0, kMax},
                           Refused{"12x", 0, kMax},
                           Refused{"0x10", 0, kMax},
                           Refused{"1.5", 0, kMax},
                           Refused{"18446744073709551616", 0, kMax},
                           Refused{"70000", 0, 65535},
                           Refused{"0", 1, 1024},
                           Refused{"1025", 1, 1024}}) {
    EXPECT_THROW(ParseWholeNumber(c.text, c.min, c.max),
                 std::invalid_argument)
        << "'" << c.text << "'";
  }
}

TEST(FlagsTest, EndpointTable) {
  const Endpoint bare = Endpoint::Parse("9100");
  EXPECT_EQ(bare.host, "127.0.0.1");
  EXPECT_EQ(bare.port, 9100);
  const Endpoint full = Endpoint::Parse("10.0.0.2:65535");
  EXPECT_EQ(full.host, "10.0.0.2");
  EXPECT_EQ(full.port, 65535);
  for (const char* spec : {"", "nohost", ":9100", "host:", "host:0",
                           "host:65536", "host:-1", "host:91x0", "host:+80"}) {
    EXPECT_THROW(Endpoint::Parse(spec), std::invalid_argument) << spec;
  }
}

TEST(FlagsTest, ParseFlagMatchesWholeName) {
  std::string value;
  EXPECT_TRUE(ParseFlag("--port=9100", "port", value));
  EXPECT_EQ(value, "9100");
  EXPECT_FALSE(ParseFlag("--ports=1", "port", value));
  EXPECT_FALSE(ParseFlag("--port", "port", value));
}

struct ProcessResult {
  int exit_status = -1;  // -1 unless the process exited normally
  std::string output;    // stdout and stderr
};

// Runs `command` through the shell, bounded by `timeout` so a binary that
// wrongly started serving is killed instead of hanging the suite.
ProcessResult RunCommand(const std::string& command) {
  ProcessResult result;
  FILE* pipe = popen(("timeout 10 " + command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed: " << command;
    return result;
  }
  char buffer[512];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) {
    result.exit_status = WEXITSTATUS(status);
  }
  return result;
}

TEST(FlagsTest, BinariesRefuseMalformedNumbers) {
  const struct {
    const char* binary;
    const char* args;
  } cases[] = {
      {PRIVAPPROX_PROXYD, "--index=abc --port=0"},
      {PRIVAPPROX_AGGREGATORD,
       "--port=0 --proxy=127.0.0.1:1 --proxy=127.0.0.1:2 --population=abc"},
      {PRIVAPPROX_CLIENTFLEET,
       "--proxy=127.0.0.1:1 --proxy=127.0.0.1:2 --aggregator=127.0.0.1:3 "
       "--clients=x"},
  };
  for (const auto& c : cases) {
    const std::string command = "'" + std::string(c.binary) + "' " + c.args;
    const ProcessResult result = RunCommand(command);
    EXPECT_EQ(result.exit_status, 2) << command << "\n" << result.output;
    EXPECT_NE(result.output.find("usage: "), std::string::npos)
        << command << "\n" << result.output;
    EXPECT_EQ(result.output.find("listening"), std::string::npos)
        << command << "\n" << result.output;
  }
}

}  // namespace
}  // namespace privapprox::deploy
