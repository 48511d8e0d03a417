#pragma once
// Proxy handoff (paper §IV "Handoff"): before a player's proxy is renewed,
// it sends a summary of the player's state to the next proxy; it also
// embeds the summary it received from its own predecessor, giving the new
// proxy follow-up over the two previous proxy periods and limiting what a
// single colluding proxy can whitewash.

#include <optional>
#include <vector>

#include "game/avatar.hpp"
#include "interest/deadreckoning.hpp"
#include "interest/subscription.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace watchmen::core {

struct PlayerSummary {
  PlayerId player = kInvalidPlayer;
  std::int64_t round = 0;              ///< proxy round the summary covers
  bool has_state = false;
  game::AvatarState last_state;        ///< last verified state update
  Frame last_state_frame = -1;
  std::uint32_t updates_received = 0;  ///< state updates seen in the round
  std::uint32_t suspicious_events = 0; ///< checks that flagged during the round
  bool has_guidance = false;
  /// The player's live guidance message (carried in its quantized wire
  /// encoding, which it came off), so the successor proxy can verify the
  /// dead-reckoning window that spans the renewal boundary.
  interest::Guidance guidance;
  /// Live subscription table entries, so subscribers keep receiving without
  /// re-subscribing across the renewal.
  std::vector<std::pair<PlayerId, interest::Subscription>> subscriptions;
};

struct HandoffPayload {
  PlayerSummary summary;
  std::optional<PlayerSummary> predecessor;  ///< follow-up on two proxies back
};

std::vector<std::uint8_t> encode_handoff_body(const HandoffPayload& h);
HandoffPayload decode_handoff_body(std::span<const std::uint8_t> body);

}  // namespace watchmen::core
