#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch — no external crypto deps.
//
// Used for message digests inside the signature scheme and for deriving
// deterministic per-message nonces. The block compression is picked once per
// process: SHA-NI on x86 CPUs that have it, the portable scalar rounds
// everywhere else. Both produce identical digests.

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace watchmen::crypto {

using Digest = std::array<std::uint8_t, 32>;

namespace detail {

/// Chaining value of the compression function (H0..H7).
using Sha256State = std::array<std::uint32_t, 8>;

/// Absorbs `n_blocks` consecutive 64-byte blocks into `state`.
using Sha256Compress = void (*)(Sha256State& state, const std::uint8_t* blocks,
                                std::size_t n_blocks);

/// Portable compression: the reference every accelerated path must match.
void sha256_compress_scalar(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t n_blocks);

/// The compression chosen for this CPU on first use: SHA-NI when the CPU
/// supports it (x86 builds only), otherwise sha256_compress_scalar.
Sha256Compress sha256_compress();

}  // namespace detail

class Sha256 {
 public:
  Sha256() : Sha256(detail::sha256_compress()) {}
  /// Hashes with a given compression. Differential tests and fuzzers use it
  /// to run detail::sha256_compress_scalar against the dispatched path.
  explicit Sha256(detail::Sha256Compress compress) : compress_(compress) {
    reset();
  }
  /// Continues a hash whose first `blocks` 64-byte blocks left `midstate`
  /// (see midstate()). HMAC keeps its key blocks this way.
  Sha256(const detail::Sha256State& midstate, std::uint64_t blocks)
      : compress_(detail::sha256_compress()),
        state_(midstate),
        total_len_(blocks * 64) {}

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s) {
    update(std::span(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  /// Finalizes and returns the digest. The object must be reset() before reuse.
  Digest finish();

  /// Chaining value over the whole blocks absorbed so far. It is a resumable
  /// midstate only when the bytes hashed so far are a multiple of 64.
  const detail::Sha256State& midstate() const { return state_; }

  static Digest hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
  }
  static Digest hash(std::string_view s) {
    Sha256 h;
    h.update(s);
    return h.finish();
  }

 private:
  detail::Sha256Compress compress_;
  detail::Sha256State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// First 8 bytes of the digest as a little-endian integer — a convenient
/// 64-bit hash for tables and nonce derivation.
std::uint64_t digest_to_u64(const Digest& d);

}  // namespace watchmen::crypto
