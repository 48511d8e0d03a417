#pragma once
// Per-session key registry: the game lobby hands every player a key pair and
// publishes the public keys to everyone (paper, Section IV "Encryption &
// Signatures"). Players use them to sign updates/subscriptions/handoffs so
// proxies cannot tamper, replay, or spoof.

#include <cstdint>
#include <vector>

#include "crypto/sig.hpp"
#include "util/ids.hpp"

namespace watchmen::crypto {

class KeyRegistry {
 public:
  KeyRegistry() = default;

  /// Creates keys for players 0..n-1, all derived from the session seed.
  KeyRegistry(std::uint64_t session_seed, std::size_t n_players) {
    keys_.reserve(n_players);
    for (std::size_t i = 0; i < n_players; ++i) {
      keys_.push_back(KeyPair::generate(session_seed ^ (0xabcd1234ULL + i * 0x9e37ULL)));
    }
  }

  std::size_t size() const { return keys_.size(); }

  /// Full key pair — only the owning player may call this for itself in a
  /// real deployment; the simulation holds all of them.
  const KeyPair& key_pair(PlayerId p) const { return keys_.at(p); }

  std::uint64_t public_key(PlayerId p) const { return keys_.at(p).public_key(); }

 private:
  std::vector<KeyPair> keys_;
};

}  // namespace watchmen::crypto
