#pragma once
// Sanity checks from paper §V-A. Each check computes a raw deviation metric
// and a 1..10 cheat rating. Thresholds that depend on honest-player
// behaviour (the "ā + σ_a" rule) come from a Calibration learned on honest
// traces — see calibration.hpp.

#include <vector>

#include "game/avatar.hpp"
#include "game/map.hpp"
#include "game/physics.hpp"
#include "game/weapons.hpp"
#include "interest/deadreckoning.hpp"
#include "interest/sets.hpp"
#include "interest/vision.hpp"
#include "verify/report.hpp"

namespace watchmen::verify {

struct CheckResult {
  double deviation = 0.0;  ///< <= 0 means within expected behaviour
  double rating = 1.0;     ///< 1..10
  bool suspicious() const { return deviation > 0.0; }
};

/// Honest-behaviour tolerance for a deviation metric: a check flags when the
/// observed deviation exceeds mean + stddev (paper: a > ā + σ_a).
struct Tolerance {
  double mean = 0.0;
  double stddev = 0.0;
  double threshold() const { return mean + stddev; }
  bool operator==(const Tolerance&) const = default;
};

// ---------------------------------------------------------------- checks

/// Position-update check: distance covered between two updates must be
/// physically reachable in the elapsed frames (speed, gravity, terminal
/// fall). If `map` is given, moves ending near a respawn spot are exempt —
/// respawns are the one legal teleport in the game rules.
CheckResult check_position(const Vec3& prev_pos, Frame prev_frame,
                           const Vec3& cur_pos, Frame cur_frame,
                           const game::GameMap* map = nullptr,
                           const game::PhysicsConstants& pc = game::kDefaultPhysics);

/// Guidance check: area between the dead-reckoned trajectory and the actual
/// observed path, flagged beyond the calibrated honest tolerance.
CheckResult check_guidance(const interest::Guidance& guidance,
                           const std::vector<Vec3>& actual_path,
                           Frame first_actual_frame, const Tolerance& tol);

/// Everything a kill-claim verifier can cross-check about a claim.
struct KillClaimEvidence {
  game::WeaponKind weapon = game::WeaponKind::kMachineGun;
  double claimed_distance = 0.0;
  Vec3 shooter_pos;              ///< shooter position as known to the verifier
  Frame shooter_pos_age = 0;     ///< staleness of that knowledge, frames
  Vec3 victim_pos;               ///< victim position as known to the verifier
  Frame victim_pos_age = 0;      ///< staleness of that knowledge, frames
  /// Frames since the shooter's *previous* kill claim with this weapon
  /// stream; kills claimed faster than the weapon can refire are flagged.
  Frame frames_since_last_fire = 1000;
  Frame frames_victim_in_shooter_is = 1000;  ///< IS residency before the claim
  bool line_of_sight = true;     ///< map visibility shooter -> victim
  std::int32_t shooter_ammo = 1; ///< last known ammo
};

/// Kill-claim check (paper: verify weapon type, distance, visibility, and
/// how long the attacker had the target in his IS).
CheckResult check_kill(const KillClaimEvidence& e,
                       const game::PhysicsConstants& pc = game::kDefaultPhysics);

/// VS-subscription check: distance between the subscribed target and the
/// subscriber's vision cone (0 when the subscription is justified).
CheckResult check_vs_subscription(const game::AvatarState& subscriber,
                                  const Vec3& target_pos,
                                  const interest::VisionConfig& vision,
                                  double slack = 64.0);

/// IS-subscription check: the target's attention rank among all candidates
/// must be within the IS size (plus slack for update raciness).
/// `knowledge_slack` (world units) compensates for the verifier's stale
/// knowledge of the target's position.
CheckResult check_is_subscription(PlayerId subscriber, PlayerId target,
                                  std::span<const game::AvatarState> avatars,
                                  const game::GameMap& map, Frame now,
                                  const interest::InteractionFn& last_interaction,
                                  const interest::InterestConfig& cfg,
                                  double knowledge_slack = 0.0);

/// Aimbot check (paper Table I: "detection by proxy (statistical
/// analysis)"). The proxy samples, for each state update where some enemy
/// is in front of and near the player, the angular error between the
/// player's aim and the exact direction to the best-aligned enemy. Human
/// aim carries irreducible noise; an aimbot tracks with inhuman precision.
/// Flags when enough samples in a window have a median error below the
/// calibrated honest floor.
/// @param angular_errors  per-update best angular errors (radians)
/// @param tol             honest tolerance: mean/stddev of honest *medians*
CheckResult check_aim(const std::vector<double>& angular_errors,
                      const Tolerance& tol, std::size_t min_samples = 15);

/// Dissemination-rate check over a measurement window.
/// Flags both fast-rate cheats (observed > expected + slack) and
/// suppress/blind/escape cheats (observed below the loss-and-latency
/// allowance). `slop` absorbs boundary effects: messages in flight across
/// the window edges.
CheckResult check_rate(std::size_t observed, std::size_t expected,
                       double loss_allowance = 0.05, std::size_t slop = 3);

}  // namespace watchmen::verify
