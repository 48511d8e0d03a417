#pragma once
// Attention metric (Donnybrook-style, used by the paper for the Interest
// Set): a combination of proximity, aim, and interaction recency. Avatars
// with the highest attention scores inside the vision set form the IS.

#include "game/avatar.hpp"
#include "interest/vision.hpp"
#include "util/ids.hpp"

namespace watchmen::interest {

struct AttentionWeights {
  double proximity = 1.0;
  double aim = 1.0;
  double recency = 1.0;
  /// Recency decay constant in frames: a hit `tau` frames ago contributes
  /// 1/e of a fresh hit.
  double recency_tau = 100.0;
  bool operator==(const AttentionWeights&) const = default;
};

/// Attention of `observer` towards `target`; larger = more attention.
/// `last_interaction` is the frame of the most recent hit between the pair
/// (very negative if never).
double attention_score(const game::AvatarState& observer,
                       const game::AvatarState& target, Frame now,
                       Frame last_interaction, const VisionConfig& vision,
                       const AttentionWeights& w = {});

}  // namespace watchmen::interest
