// Fuzz target: the crypto fast paths against their portable references.
//
// Invariants checked:
//  * the dispatched SHA-256 compression (SHA-NI where the CPU has it) leaves
//    the same chaining value as the scalar one on arbitrary states and
//    blocks, and whole digests agree for any split of the input;
//  * the Mersenne mod_mul / mod_pow and the fixed-base g table agree with
//    the generic `unsigned __int128 %` arithmetic on arbitrary operands,
//    including unreduced ones up to 2^64-1;
//  * sign -> verify round-trips, and flipping any single bit of the message
//    or the signature makes verify reject.

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/sig.hpp"

namespace crypto = watchmen::crypto;

namespace {

/// Reads 8 little-endian bytes at `off`, zero-padded past the end.
std::uint64_t u64_at(std::span<const std::uint8_t> data, std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && off + i < data.size(); ++i) {
    v |= static_cast<std::uint64_t>(data[off + i]) << (8 * i);
  }
  return v;
}

void check_compression(std::span<const std::uint8_t> data) {
  crypto::detail::Sha256State a{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint32_t>(u64_at(data, 4 * i));
  }
  crypto::detail::Sha256State b = a;
  const std::size_t n_blocks = data.size() / 64;
  crypto::detail::sha256_compress_scalar(a, data.data(), n_blocks);
  crypto::detail::sha256_compress()(b, data.data(), n_blocks);
  if (a != b) std::abort();

  const std::size_t split = data.empty() ? 0 : data[0] % (data.size() + 1);
  crypto::Sha256 scalar(crypto::detail::sha256_compress_scalar);
  scalar.update(data);
  crypto::Sha256 fast;
  fast.update(data.first(split));
  fast.update(data.subspan(split));
  if (scalar.finish() != fast.finish()) std::abort();
}

void check_arithmetic(std::span<const std::uint8_t> data) {
  const std::uint64_t a = u64_at(data, 0);
  const std::uint64_t b = u64_at(data, 8);
  const std::uint64_t e = u64_at(data, 16);
  const std::uint64_t p = crypto::kGroupP;
  if (crypto::mod_mul(a, b, p) != crypto::detail::mod_mul_generic(a, b, p)) {
    std::abort();
  }
  if (crypto::mod_pow(a, e, p) != crypto::detail::mod_pow_generic(a, e, p)) {
    std::abort();
  }
  if (crypto::detail::g_pow(e) !=
      crypto::detail::mod_pow_generic(crypto::kGroupG, e, p)) {
    std::abort();
  }
}

void check_signature(std::span<const std::uint8_t> data) {
  const crypto::KeyPair key = crypto::KeyPair::generate(u64_at(data, 0));
  const crypto::Signature sig = crypto::sign(key, data);
  if (!crypto::verify(key.public_key(), data, sig)) std::abort();

  // One bit flip, anywhere in signature || message.
  const std::size_t n_bits = 8 * (crypto::kSignatureBytes + data.size());
  const std::size_t bit = u64_at(data, 8) % n_bits;
  auto sig_bytes = sig.encode();
  std::vector<std::uint8_t> msg(data.begin(), data.end());
  if (bit < 8 * crypto::kSignatureBytes) {
    sig_bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  } else {
    const std::size_t m = bit - 8 * crypto::kSignatureBytes;
    msg[m / 8] ^= static_cast<std::uint8_t>(1u << (m % 8));
  }
  if (crypto::verify(key.public_key(), msg, crypto::Signature::decode(sig_bytes))) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  check_compression(in);
  check_arithmetic(in);
  check_signature(in);
  return 0;
}
