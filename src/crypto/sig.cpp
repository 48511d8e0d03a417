#include "crypto/sig.hpp"

#include "util/rng.hpp"

namespace watchmen::crypto {
namespace {

// ---- Arithmetic mod the Mersenne prime p = 2^61 - 1 ------------------------
// 2^61 == 1 (mod p), so a product splits into its low 61 bits plus the bits
// above them, with no division.

/// a*b mod p for a, b < p. The product is below 2^122, so one fold leaves a
/// value below 2p and one conditional subtract finishes.
constexpr std::uint64_t mul_p(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
  const std::uint64_t r =
      (static_cast<std::uint64_t>(t) & kGroupP) + static_cast<std::uint64_t>(t >> 61);
  return r >= kGroupP ? r - kGroupP : r;
}

/// t mod p for any 128-bit t: the first fold leaves < 2^68, the second
/// <= p + 64, and one conditional subtract finishes.
constexpr std::uint64_t reduce_p(unsigned __int128 t) {
  t = (t & kGroupP) + (t >> 61);
  const std::uint64_t r =
      (static_cast<std::uint64_t>(t) & kGroupP) + static_cast<std::uint64_t>(t >> 61);
  return r >= kGroupP ? r - kGroupP : r;
}

/// base^exp mod p for base < p: a 4-bit fixed window. 15 precomputed powers,
/// then 60 squarings and 15 multiplies for every exponent (a zero digit
/// multiplies by table[0] == 1).
std::uint64_t pow_p(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t table[16];
  table[0] = 1;
  table[1] = base;
  for (int i = 2; i < 16; ++i) table[i] = mul_p(table[i - 1], base);
  std::uint64_t r = table[exp >> 60];
  for (int shift = 56; shift >= 0; shift -= 4) {
    r = mul_p(r, r);
    r = mul_p(r, r);
    r = mul_p(r, r);
    r = mul_p(r, r);
    r = mul_p(r, table[(exp >> shift) & 15]);
  }
  return r;
}

/// kGTable[i][j] = g^(j * 256^i) mod p, so g^e is the product of one entry
/// per byte of e. 16 KB, built at compile time.
using GTable = std::array<std::array<std::uint64_t, 256>, 8>;

constexpr GTable make_g_table() {
  GTable table{};
  std::uint64_t step = kGroupG;  // g^(256^i)
  for (auto& row : table) {
    row[0] = 1;
    for (std::size_t j = 1; j < row.size(); ++j) row[j] = mul_p(row[j - 1], step);
    step = mul_p(row[255], step);
  }
  return table;
}

constexpr GTable kGTable = make_g_table();

}  // namespace

namespace detail {

std::uint64_t mod_mul_generic(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t mod_pow_generic(std::uint64_t base, std::uint64_t exp,
                              std::uint64_t m) {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mod_mul_generic(result, base, m);
    base = mod_mul_generic(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t g_pow(std::uint64_t exp) {
  std::uint64_t r = kGTable[0][exp & 0xff];
  for (std::size_t i = 1; i < kGTable.size(); ++i) {
    r = mul_p(r, kGTable[i][(exp >> (8 * i)) & 0xff]);
  }
  return r;
}

}  // namespace detail

std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  if (m == kGroupP) return reduce_p(static_cast<unsigned __int128>(a) * b);
  return detail::mod_mul_generic(a, b, m);
}

std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp, std::uint64_t m) {
  if (m != kGroupP) return detail::mod_pow_generic(base, exp, m);
  return pow_p(reduce_p(base), exp);
}

std::array<std::uint8_t, 16> Signature::encode() const {
  std::array<std::uint8_t, 16> out{};
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(e >> (8 * i));
    out[8 + i] = static_cast<std::uint8_t>(s >> (8 * i));
  }
  return out;
}

Signature Signature::decode(std::span<const std::uint8_t> bytes) {
  Signature sig;
  if (bytes.size() < 16) return sig;
  for (int i = 0; i < 8; ++i) {
    sig.e |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    sig.s |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
  }
  return sig;
}

namespace {

/// The nonce HMAC key: the secret's 8 little-endian bytes.
HmacSha256 nonce_key_for(std::uint64_t secret) {
  std::uint8_t key_bytes[8];
  for (int i = 0; i < 8; ++i) key_bytes[i] = static_cast<std::uint8_t>(secret >> (8 * i));
  return HmacSha256(std::span<const std::uint8_t>(key_bytes, 8));
}

/// Hash (r || message) into an exponent in [1, q).
std::uint64_t challenge(std::uint64_t r, std::span<const std::uint8_t> message) {
  Sha256 h;
  std::uint8_t r_bytes[8];
  for (int i = 0; i < 8; ++i) r_bytes[i] = static_cast<std::uint8_t>(r >> (8 * i));
  h.update(std::span<const std::uint8_t>(r_bytes, 8));
  h.update(message);
  std::uint64_t e = digest_to_u64(h.finish()) % kGroupQ;
  return e == 0 ? 1 : e;
}

/// Deterministic nonce in [1, q): HMAC(secret, message).
std::uint64_t derive_nonce(const HmacSha256& nonce_key,
                           std::span<const std::uint8_t> message) {
  std::uint64_t k = digest_to_u64(nonce_key.mac(message)) % kGroupQ;
  return k == 0 ? 1 : k;
}

}  // namespace

KeyPair::KeyPair(std::uint64_t secret)
    : secret_(secret),
      public_key_(detail::g_pow(secret)),
      nonce_key_(nonce_key_for(secret)) {}

KeyPair KeyPair::generate(std::uint64_t seed) {
  // Mix until the secret lands in [1, q).
  std::uint64_t x = mix64(seed ^ 0x5ec2e7deadbeef01ULL);
  while (x % kGroupQ == 0) x = mix64(x);
  return KeyPair(x % kGroupQ);
}

Signature sign(const KeyPair& key, std::span<const std::uint8_t> message) {
  const std::uint64_t k = derive_nonce(key.nonce_key_, message);
  const std::uint64_t r = detail::g_pow(k);
  const std::uint64_t e = challenge(r, message);
  // s = k + e*x (mod q)
  const std::uint64_t s =
      (k + mod_mul(e, key.secret_, kGroupQ)) % kGroupQ;
  return {e, s};
}

bool verify(std::uint64_t public_key, std::span<const std::uint8_t> message,
            const Signature& sig) {
  if (sig.e == 0 || sig.e >= kGroupQ || sig.s >= kGroupQ) return false;
  // Accept y in [2, p-2] only: rejects 0, the order-1 and order-2 elements
  // 1 and p-1 (= kGroupQ), and anything >= p.
  if (public_key <= 1 || public_key >= kGroupQ) return false;
  // r' = g^s * y^(-e) = g^s * y^(q - e)   (y^q == 1 by Fermat)
  const std::uint64_t r =
      mul_p(detail::g_pow(sig.s), pow_p(public_key, kGroupQ - sig.e));
  return challenge(r, message) == sig.e;
}

}  // namespace watchmen::crypto
