// Table 2: computational overhead of crypto operations (operations/sec) —
// XOR (PrivApprox) vs RSA, Goldwasser-Micali, and Paillier with 1024-bit
// keys, encryption and decryption.
//
// All four schemes are real implementations over our own bignum substrate.
// The paper measured a phone, a laptop, and a 32-core server; we measure
// this host and print the paper's server column alongside. The result that
// matters is the shape: XOR beats the public-key schemes by 3-5 orders of
// magnitude, which is why PrivApprox can run on resource-constrained
// clients.
//
// The SIMD section benchmarks the two primitives under the XOR scheme —
// ChaCha20 keystream generation and the bulk XOR — once per compiled-in
// dispatch tier (keystream_<isa> / xor_<isa> rows, bytes/sec) plus the
// dispatched default, and the CRC-32 that guards every TCP bus frame and
// durable log record once per compiled-in kernel (BM_Crc32/<kernel> rows).
// A JSON row with per-ISA GB/s, per-kernel CRC-32 GB/s and the
// best-ISA/scalar speedup ratios is printed last and appended to a
// trajectory file (--json-out=PATH, default BENCH_crypto.json, empty
// disables), so CI can assert the vector kernels actually pay off on the
// host they ran on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bignum/biguint.h"
#include "common/rng.h"
#include "common/simd_dispatch.h"
#include "common/xor_bytes.h"
#include "crypto/chacha20_simd.h"
#include "crypto/goldwasser_micali.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "crypto/xor_cipher.h"
#include "storage/crc32.h"

using namespace privapprox;

namespace {

constexpr size_t kKeyBits = 1024;
constexpr size_t kMessageBytes = 128;  // one 1024-bit block

// SIMD primitive working-set: big enough that the wide kernels run almost
// entirely in their vector loops, small enough to stay L1/L2-resident so
// the rows measure compute, not memory bandwidth.
constexpr size_t kKeystreamBlocks = 256;  // 16 KiB per call
constexpr size_t kXorBytes = 16384;
constexpr size_t kCrcBytes = 16384;

Xoshiro256& Rng() {
  static Xoshiro256 rng(7);
  return rng;
}

const crypto::RsaKeyPair& RsaKey() {
  static const crypto::RsaKeyPair key =
      crypto::RsaKeyPair::Generate(Rng(), kKeyBits);
  return key;
}

const crypto::GoldwasserMicaliKeyPair& GmKey() {
  static const crypto::GoldwasserMicaliKeyPair key =
      crypto::GoldwasserMicaliKeyPair::Generate(Rng(), kKeyBits);
  return key;
}

const crypto::PaillierKeyPair& PaillierKey() {
  static const crypto::PaillierKeyPair key =
      crypto::PaillierKeyPair::Generate(Rng(), kKeyBits);
  return key;
}

void BM_XorEncrypt(benchmark::State& state) {
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(1, 0));
  const std::vector<uint8_t> message(kMessageBytes, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitter.Split(message));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XorEncrypt);

void BM_XorDecrypt(benchmark::State& state) {
  crypto::XorSplitter splitter(2, crypto::ChaCha20Rng::FromSeed(1, 0));
  const auto shares = splitter.Split(std::vector<uint8_t>(kMessageBytes, 0x5A));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::XorSplitter::Combine(shares));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_XorDecrypt);

void BM_RsaEncrypt(benchmark::State& state) {
  const auto& key = RsaKey();
  const auto m = bignum::BigUint::RandomBelow(Rng(), key.modulus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Encrypt(m));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RsaEncrypt);

void BM_RsaDecrypt(benchmark::State& state) {
  const auto& key = RsaKey();
  const auto c = key.Encrypt(bignum::BigUint::RandomBelow(Rng(), key.modulus()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Decrypt(c));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RsaDecrypt);

void BM_GoldwasserMicaliEncrypt(benchmark::State& state) {
  const auto& key = GmKey();
  // One crypto operation = one bit encryption (the unit the compared system
  // uses per answer bit).
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.EncryptBit(true, Rng()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoldwasserMicaliEncrypt);

void BM_GoldwasserMicaliDecrypt(benchmark::State& state) {
  const auto& key = GmKey();
  const auto c = key.EncryptBit(true, Rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.DecryptBit(c));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoldwasserMicaliDecrypt);

void BM_PaillierEncrypt(benchmark::State& state) {
  const auto& key = PaillierKey();
  const auto m = bignum::BigUint::RandomBelow(Rng(), key.modulus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Encrypt(m, Rng()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaillierEncrypt);

void BM_PaillierDecrypt(benchmark::State& state) {
  const auto& key = PaillierKey();
  const auto c =
      key.Encrypt(bignum::BigUint::RandomBelow(Rng(), key.modulus()), Rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.Decrypt(c));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaillierDecrypt);

// ------------------------------------------------ SIMD keystream / XOR rows

void KeystreamBody(benchmark::State& state, simd::Isa isa, bool dispatched) {
  std::array<uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i * 7);
  }
  const std::array<uint8_t, 12> nonce = {1, 2, 3, 4,  5,  6,
                                         7, 8, 9, 10, 11, 12};
  std::vector<uint8_t> out(kKeystreamBlocks * 64);
  uint32_t counter = 0;
  for (auto _ : state) {
    if (dispatched) {
      crypto::ChaCha20BlocksInto(out.data(), key, nonce, counter,
                                 kKeystreamBlocks);
    } else {
      crypto::ChaCha20BlocksIntoWith(isa, out.data(), key, nonce, counter,
                                     kKeystreamBlocks);
    }
    counter += static_cast<uint32_t>(kKeystreamBlocks);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size()));
}

void XorBody(benchmark::State& state, simd::Isa isa, bool dispatched) {
  std::vector<uint8_t> dst(kXorBytes);
  std::vector<uint8_t> src(kXorBytes);
  for (size_t i = 0; i < kXorBytes; ++i) {
    dst[i] = static_cast<uint8_t>(i * 131);
    src[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  for (auto _ : state) {
    if (dispatched) {
      XorBytesInPlace(dst.data(), src.data(), kXorBytes);
    } else {
      XorBytesInPlaceWith(isa, dst.data(), src.data(), kXorBytes);
    }
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kXorBytes));
}

std::vector<uint8_t> CrcInput() {
  std::vector<uint8_t> data(kCrcBytes);
  for (size_t i = 0; i < kCrcBytes; ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  return data;
}

void Crc32Body(benchmark::State& state, storage::Crc32Kernel kernel) {
  const std::vector<uint8_t> data = CrcInput();
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = storage::Crc32UpdateWith(kernel, crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCrcBytes));
}

void RegisterSimdBenchmarks() {
  for (const simd::Isa isa : simd::AvailableIsas()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Keystream/") + simd::IsaName(isa)).c_str(),
        [isa](benchmark::State& state) { KeystreamBody(state, isa, false); });
  }
  benchmark::RegisterBenchmark(
      "BM_Keystream/dispatched", [](benchmark::State& state) {
        KeystreamBody(state, simd::Isa::kScalar, true);
      });
  for (const simd::Isa isa : simd::AvailableIsas()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_XorInPlace/") + simd::IsaName(isa)).c_str(),
        [isa](benchmark::State& state) { XorBody(state, isa, false); });
  }
  benchmark::RegisterBenchmark(
      "BM_XorInPlace/dispatched", [](benchmark::State& state) {
        XorBody(state, simd::Isa::kScalar, true);
      });
  for (const storage::Crc32Kernel kernel : storage::AvailableCrc32Kernels()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Crc32/") + storage::Crc32KernelName(kernel)).c_str(),
        [kernel](benchmark::State& state) { Crc32Body(state, kernel); });
  }
}

// Self-timed bytes/sec for the JSON artifact: repeat the 16 KiB primitive
// until enough wall time has accumulated that the rate is stable. Separate
// from the google-benchmark rows so the artifact does not depend on
// benchmark-library output parsing.
double MeasureKeystreamBytesPerSec(simd::Isa isa) {
  std::array<uint8_t, 32> key{};
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i * 7);
  }
  const std::array<uint8_t, 12> nonce = {1, 2, 3, 4,  5,  6,
                                         7, 8, 9, 10, 11, 12};
  std::vector<uint8_t> out(kKeystreamBlocks * 64);
  uint32_t counter = 0;
  // Warm-up pass (page in the buffer, settle turbo).
  crypto::ChaCha20BlocksIntoWith(isa, out.data(), key, nonce, counter,
                                 kKeystreamBlocks);
  size_t bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  double seconds = 0.0;
  do {
    for (int rep = 0; rep < 16; ++rep) {
      crypto::ChaCha20BlocksIntoWith(isa, out.data(), key, nonce, counter,
                                     kKeystreamBlocks);
      counter += static_cast<uint32_t>(kKeystreamBlocks);
      bytes += out.size();
    }
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (seconds < 0.2);
  benchmark::DoNotOptimize(out.data());
  return static_cast<double>(bytes) / seconds;
}

double MeasureXorBytesPerSec(simd::Isa isa) {
  std::vector<uint8_t> dst(kXorBytes);
  std::vector<uint8_t> src(kXorBytes);
  for (size_t i = 0; i < kXorBytes; ++i) {
    dst[i] = static_cast<uint8_t>(i * 131);
    src[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  XorBytesInPlaceWith(isa, dst.data(), src.data(), kXorBytes);
  size_t bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  double seconds = 0.0;
  do {
    for (int rep = 0; rep < 64; ++rep) {
      XorBytesInPlaceWith(isa, dst.data(), src.data(), kXorBytes);
      bytes += kXorBytes;
    }
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (seconds < 0.2);
  benchmark::DoNotOptimize(dst.data());
  return static_cast<double>(bytes) / seconds;
}

double MeasureCrc32BytesPerSec(storage::Crc32Kernel kernel) {
  const std::vector<uint8_t> data = CrcInput();
  uint32_t crc = storage::Crc32UpdateWith(kernel, 0, data.data(), data.size());
  size_t bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  double seconds = 0.0;
  do {
    for (int rep = 0; rep < 64; ++rep) {
      crc = storage::Crc32UpdateWith(kernel, crc, data.data(), data.size());
      bytes += kCrcBytes;
    }
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (seconds < 0.2);
  benchmark::DoNotOptimize(crc);
  return static_cast<double>(bytes) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  // Parse and strip our own flag before benchmark::Initialize sees argv.
  std::string json_out = "BENCH_crypto.json";
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  std::printf(
      "Table 2: crypto overhead (ops/sec; 1024-bit keys; this host).\n"
      "Paper's server column for reference (ops/sec):\n"
      "  encryption:  RSA 4,909 | GM 22,902 | Paillier 579 | XOR 1,351,937\n"
      "  decryption:  RSA   859 | GM  7,068 | Paillier 309 | XOR 22,678,285\n"
      "Shape to reproduce: XOR >> GM > RSA >> Paillier, with XOR 3-5 orders\n"
      "of magnitude ahead.\n"
      "SIMD rows: ChaCha20 keystream + bulk XOR per dispatch tier\n"
      "(active tier: %s).\n\n",
      simd::IsaName(simd::ActiveIsa()));
  RegisterSimdBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // JSON trajectory row: per-ISA GB/s plus the best-ISA/scalar ratios.
  const auto isas = simd::AvailableIsas();
  std::string keystream_json;
  std::string xor_json;
  double keystream_scalar = 0.0;
  double keystream_best = 0.0;
  double xor_scalar = 0.0;
  double xor_best = 0.0;
  char buf[256];
  for (size_t i = 0; i < isas.size(); ++i) {
    const double ks = MeasureKeystreamBytesPerSec(isas[i]);
    const double xr = MeasureXorBytesPerSec(isas[i]);
    if (isas[i] == simd::Isa::kScalar) {
      keystream_scalar = ks;
      xor_scalar = xr;
    }
    keystream_best = std::max(keystream_best, ks);
    xor_best = std::max(xor_best, xr);
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", i == 0 ? "" : ",",
                  simd::IsaName(isas[i]), ks / 1e9);
    keystream_json += buf;
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", i == 0 ? "" : ",",
                  simd::IsaName(isas[i]), xr / 1e9);
    xor_json += buf;
  }
  std::string crc_json;
  const auto kernels = storage::AvailableCrc32Kernels();
  for (size_t i = 0; i < kernels.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", i == 0 ? "" : ",",
                  storage::Crc32KernelName(kernels[i]),
                  MeasureCrc32BytesPerSec(kernels[i]) / 1e9);
    crc_json += buf;
  }
  std::string json = "{\"bench\":\"table2_crypto\",\"active\":\"";
  json += simd::IsaName(simd::ActiveIsa());
  json += "\",\"keystream_gbps\":{" + keystream_json + "}";
  json += ",\"xor_gbps\":{" + xor_json + "}";
  json += ",\"crc32_gbps\":{" + crc_json + "}";
  std::snprintf(buf, sizeof(buf),
                ",\"keystream_best_ratio\":%.3f,\"xor_best_ratio\":%.3f}",
                keystream_scalar > 0.0 ? keystream_best / keystream_scalar
                                       : 0.0,
                xor_scalar > 0.0 ? xor_best / xor_scalar : 0.0);
  json += buf;
  std::printf("\n%s\n", json.c_str());
  if (!json_out.empty()) {
    if (std::FILE* f = std::fopen(json_out.c_str(), "a")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "warning: cannot append to %s\n", json_out.c_str());
    }
  }
  return 0;
}
