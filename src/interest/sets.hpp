#pragma once
// Player-set partitioning: Interest Set (top-K by attention inside the
// vision set), Vision Set (visible but not interesting enough), Others
// (everyone else). Paper, Section III-A.

#include <functional>
#include <span>
#include <vector>

#include "game/avatar.hpp"
#include "game/map.hpp"
#include "interest/attention.hpp"
#include "interest/vision.hpp"
#include "util/ids.hpp"

namespace watchmen::interest {

struct InterestConfig {
  VisionConfig vision;
  AttentionWeights attention;
  std::size_t is_size = 5;  ///< paper: top-5 (limited human attention span)
  /// Attention multiplier for current IS members (hysteresis). Stops the
  /// top-K boundary from thrashing frame-to-frame on attention jitter; this
  /// is what makes subscriber retention effective (§VI: ~88 % of the IS is
  /// retained across a frame).
  double is_hysteresis = 1.6;
  bool operator==(const InterestConfig&) const = default;
};

/// The three subscription levels, ordered by information richness.
enum class SetKind : std::uint8_t {
  kInterest = 0,  ///< frequent full state updates (every frame)
  kVision = 1,    ///< infrequent guidance / dead-reckoning messages (1/s)
  kOther = 2,     ///< infrequent position-only updates (1/s)
};
constexpr int kNumSetKinds = 3;

const char* to_string(SetKind k);

struct PlayerSets {
  std::vector<PlayerId> interest;  ///< sorted by descending attention
  std::vector<PlayerId> vision;    ///< VS minus IS, sorted by id ascending
  /// Side index: `interest` re-sorted by id, kept so the per-message
  /// classify() on the receive path is a binary search instead of a linear
  /// scan. Maintained by compute_sets via rebuild_index(); membership
  /// queries fall back to a linear scan when it is out of sync (e.g. on
  /// hand-built sets).
  std::vector<PlayerId> interest_by_id;

  /// Rebuilds interest_by_id from interest. Call after editing `interest`.
  void rebuild_index();

  SetKind classify(PlayerId p) const;
  bool in_interest(PlayerId p) const;
  bool in_vision(PlayerId p) const;
};

/// Callback giving the frame of the last hit between a pair of players.
using InteractionFn = std::function<Frame(PlayerId, PlayerId)>;

/// Per-frame table of avatar eye positions, computed once and shared by
/// every observer's compute_sets_into call (instead of n^2 recomputations).
/// The SoA mirrors feed the branch-free candidate prefilter.
struct EyeTable {
  std::vector<Vec3> eye;        ///< eye[i] == avatars[i].eye()
  std::vector<double> x, y, z;  ///< SoA copies of `eye`
  void build(std::span<const game::AvatarState> avatars);
};

class VisibilityCache;

/// Computes the sets for `self` over a snapshot of all avatars.
/// Dead observers get empty sets (nothing to render); dead targets are
/// always "other". Pass the previous frame's sets via `prev` to apply IS
/// hysteresis (recommended when calling frame-by-frame).
///
/// This is the frame-budget hot path: it prefilters targets by (sticky)
/// vision radius, replaces the acos-based cone test with a squared-cosine
/// compare (falling back to the exact trigonometric test inside a narrow
/// boundary band, so accept/reject decisions are bit-identical to
/// compute_sets_reference), and routes occlusion raycasts through the
/// optional frame-scoped `vis` cache so each symmetric pair is raycast once
/// per frame. Safe to call concurrently for different `self` over the same
/// snapshot; results are a pure function of the inputs.
PlayerSets compute_sets(PlayerId self, std::span<const game::AvatarState> avatars,
                        const game::GameMap& map, Frame now,
                        const InteractionFn& last_interaction,
                        const InterestConfig& cfg,
                        const PlayerSets* prev = nullptr,
                        VisibilityCache* vis = nullptr);

/// Allocation-free variant: writes the result into `out`, reusing its
/// vectors' capacity. This is what the per-frame session loop calls — with
/// per-player persistent buffers the steady state does no heap allocation.
/// `out` may not alias `*prev`. `eyes`, when given, must be built from the
/// same `avatars` snapshot; it enables the shared eye table and the
/// branch-free candidate prefilter (a conservative reject, so results stay
/// bit-identical with or without it).
void compute_sets_into(PlayerId self, std::span<const game::AvatarState> avatars,
                       const game::GameMap& map, Frame now,
                       const InteractionFn& last_interaction,
                       const InterestConfig& cfg, const PlayerSets* prev,
                       VisibilityCache* vis, PlayerSets& out,
                       const EyeTable* eyes = nullptr);

/// The original straight-line implementation (per-target in_vision_set +
/// attention_score, no prefilter/cache). Kept as the behavioural reference:
/// tests assert compute_sets() matches it exactly, and bench/perf_report
/// uses it (with the brute-force visibility scan) as the pre-optimization
/// baseline.
PlayerSets compute_sets_reference(PlayerId self,
                                  std::span<const game::AvatarState> avatars,
                                  const game::GameMap& map, Frame now,
                                  const InteractionFn& last_interaction,
                                  const InterestConfig& cfg,
                                  const PlayerSets* prev = nullptr);

}  // namespace watchmen::interest
