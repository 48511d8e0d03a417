#pragma once
// HMAC-SHA256 (RFC 2104). Used for deterministic nonce derivation in the
// signature scheme and available as a cheaper symmetric authenticator for
// the hybrid (trusted-server) deployment mode.

#include <span>

#include "crypto/sha256.hpp"

namespace watchmen::crypto {

/// HMAC-SHA256 under one fixed key. The key's ipad and opad blocks are
/// compressed once, at construction; each mac() resumes from those two
/// midstates and so runs two block compressions fewer than a fresh HMAC.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  Digest mac(std::span<const std::uint8_t> message) const;

 private:
  detail::Sha256State inner_{};  ///< after H(key ^ ipad)
  detail::Sha256State outer_{};  ///< after H(key ^ opad)
};

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);

}  // namespace watchmen::crypto
