#pragma once
// Vision-set geometry (paper, Section III-A and Fig. 2).
//
// The Vision Set is a spherical cone of fixed radius, directed along the
// player's aim, made slightly larger than the actual field of view (±60°)
// to handle rapid spins, and clipped against world geometry: avatars behind
// a wall are NOT in the vision set.

#include <vector>

#include "game/avatar.hpp"
#include "game/map.hpp"
#include "util/ids.hpp"

namespace watchmen::interest {

struct VisionConfig {
  double radius = 2200.0;      ///< cone radius in world units
  /// ±75°: the paper's ±60° Quake III field of view plus the slack that
  /// handles rapid spins ("the cone is made slightly larger than the actual
  /// avatar's vision field").
  double half_angle = 1.309;
  bool use_occlusion = true;   ///< clip against map geometry
  bool operator==(const VisionConfig&) const = default;
};

/// Pure cone test (no occlusion): is `target` inside observer's vision cone?
bool in_vision_cone(const game::AvatarState& observer, const Vec3& target,
                    const VisionConfig& cfg);

/// Full vision-set membership test: cone + line of sight.
bool in_vision_set(const game::AvatarState& observer,
                   const game::AvatarState& target, const game::GameMap& map,
                   const VisionConfig& cfg);

/// Distance from a point to the observer's vision cone; zero when inside.
/// The paper uses this as the deviation metric when verifying incorrect
/// VS subscriptions (§V-A).
double cone_deviation(const game::AvatarState& observer, const Vec3& target,
                      const VisionConfig& cfg);

}  // namespace watchmen::interest
