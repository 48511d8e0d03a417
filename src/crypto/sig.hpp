#pragma once
// "SchnorrLite": a Schnorr-style signature over the multiplicative group of
// Z_p with p = 2^61 - 1.
//
// Paper substitution note (see DESIGN.md §2): Watchmen uses a lightweight
// digital-signature scheme producing ~100-bit signatures [17]. We reproduce
// the *interface and cost model* — 16-byte signatures on ~88-byte state
// updates, real reject-on-tamper/replay behaviour — with a scheme that fits
// in 64-bit arithmetic. A 61-bit group is NOT cryptographically strong; a
// production deployment would swap in Ed25519 behind the same API.

#include <array>
#include <cstdint>
#include <span>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace watchmen::crypto {

/// Group modulus: the Mersenne prime 2^61 - 1.
constexpr std::uint64_t kGroupP = (1ULL << 61) - 1;
/// Exponent modulus (group order): p - 1.
constexpr std::uint64_t kGroupQ = kGroupP - 1;
/// Generator of a large subgroup of Z_p^*.
constexpr std::uint64_t kGroupG = 37;

/// a*b mod m and base^exp mod m for any modulus m >= 1 and any operands
/// (reduced or not). m == kGroupP takes the Mersenne fast path.
std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b, std::uint64_t m);
std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp, std::uint64_t m);

namespace detail {

/// Reference arithmetic: one `unsigned __int128 %` per product. The fast
/// paths behind mod_mul/mod_pow must agree with it on every input.
std::uint64_t mod_mul_generic(std::uint64_t a, std::uint64_t b, std::uint64_t m);
std::uint64_t mod_pow_generic(std::uint64_t base, std::uint64_t exp,
                              std::uint64_t m);

/// g^exp mod p from the fixed-base table: 8 lookups, 7 multiplies.
std::uint64_t g_pow(std::uint64_t exp);

}  // namespace detail

/// A signature is the pair (e, s); 16 bytes on the wire.
struct Signature {
  std::uint64_t e = 0;
  std::uint64_t s = 0;

  bool operator==(const Signature&) const = default;

  std::array<std::uint8_t, 16> encode() const;
  static Signature decode(std::span<const std::uint8_t> bytes);
};

constexpr std::size_t kSignatureBytes = 16;

class KeyPair;

/// Signs a message. The nonce is derived deterministically from
/// (secret, message) à la RFC 6979, so signing is reproducible and never
/// leaks the key through nonce reuse across distinct messages.
Signature sign(const KeyPair& key, std::span<const std::uint8_t> message);

/// A signing key. Only generate() makes one, and it derives the public key
/// and the nonce HMAC key from the secret together; the members are private
/// so the three cannot drift apart.
class KeyPair {
 public:
  /// Deterministic key generation from a seed (e.g. lobby-assigned).
  static KeyPair generate(std::uint64_t seed);

  std::uint64_t secret() const { return secret_; }  ///< x in [1, q)
  std::uint64_t public_key() const { return public_key_; }  ///< y = g^x mod p

 private:
  explicit KeyPair(std::uint64_t secret);
  friend Signature sign(const KeyPair& key, std::span<const std::uint8_t> message);

  std::uint64_t secret_;
  std::uint64_t public_key_;
  HmacSha256 nonce_key_;  ///< keyed with the secret's 8 little-endian bytes
};

/// Verifies a signature against a public key. Keys outside (1, p-1) are
/// rejected: 0 is not in the group, and 1 and p-1 generate subgroups of
/// order 1 and 2 in which signatures can be forged without the secret.
bool verify(std::uint64_t public_key, std::span<const std::uint8_t> message,
            const Signature& sig);

}  // namespace watchmen::crypto
