#pragma once
// Delta coding of state updates (paper §II-A: consecutive updates show high
// temporal similarity and are delta-coded, only carrying differences).
//
// Encoding: a field bitmask followed by only the changed fields, with
// positions quantized to 1/8 unit and angles to ~0.0001 rad — the same
// trick Quake III's snapshot encoding uses. A full (non-delta) encoding is
// the delta against a default-constructed baseline.

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "game/avatar.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace watchmen::interest {

// Shared quantization grid. The delta coder, the quantized guidance wire
// and the bandwidth model all round through these, so "equal after a
// round-trip" means equal on this grid everywhere.
inline std::int32_t quant_pos(double v) {
  return static_cast<std::int32_t>(std::lround(v * 8.0));
}
inline double dequant_pos(std::int32_t q) { return static_cast<double>(q) / 8.0; }
inline std::int32_t quant_ang(double v) {
  return static_cast<std::int32_t>(std::lround(v * 10000.0));
}
inline double dequant_ang(std::int32_t q) {
  return static_cast<double>(q) / 10000.0;
}

/// Zigzag mapping so small signed differences become small varints.
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Thrown by the anchored decoder when the payload was coded against a
/// baseline frame the receiver does not hold — the explicit error path that
/// replaces the old "silently wait for the next keyframe" behavior.
struct BaselineMismatch : DecodeError {
  using DecodeError::DecodeError;
};

/// Serializes `cur` as a delta against `prev`.
std::vector<std::uint8_t> encode_delta(const game::AvatarState& prev,
                                       const game::AvatarState& cur);

/// Reconstructs the state from a delta and its baseline.
game::AvatarState decode_delta(const game::AvatarState& prev,
                               std::span<const std::uint8_t> bytes);

/// Anchored variant: the payload carries the frame of the baseline it was
/// coded against, so a receiver can verify it is applying the delta to the
/// right state instead of silently producing garbage (or silently skipping).
std::vector<std::uint8_t> encode_delta_anchored(const game::AvatarState& prev,
                                                Frame baseline_frame,
                                                const game::AvatarState& cur);

/// Throws BaselineMismatch when `baseline_frame` differs from the frame the
/// sender stamped into the payload.
game::AvatarState decode_delta_anchored(const game::AvatarState& prev,
                                        Frame baseline_frame,
                                        std::span<const std::uint8_t> bytes);

/// Full encoding (baseline = default AvatarState).
inline std::vector<std::uint8_t> encode_full(const game::AvatarState& cur) {
  return encode_delta(game::AvatarState{}, cur);
}
inline game::AvatarState decode_full(std::span<const std::uint8_t> bytes) {
  return decode_delta(game::AvatarState{}, bytes);
}

}  // namespace watchmen::interest
