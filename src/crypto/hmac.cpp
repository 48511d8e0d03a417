#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

namespace watchmen::crypto {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (std::size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(block[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(std::span<const std::uint8_t>(ipad));
  inner_ = inner.midstate();
  Sha256 outer;
  outer.update(std::span<const std::uint8_t>(opad));
  outer_ = outer.midstate();
}

Digest HmacSha256::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner(inner_, 1);
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer(outer_, 1);
  outer.update(std::span<const std::uint8_t>(inner_digest));
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  return HmacSha256(key).mac(message);
}

}  // namespace watchmen::crypto
