#pragma once
// Misbehavior & reputation engine (paper §V-B, hardened).
//
// Replaces ad-hoc report tallying with a bitcoin-grade misbehavior system
// (after bitcoin `Misbehaving` / coinbasechain `MisbehaviorPenalty`): every
// detector verdict becomes a *typed* penalty with a per-reason weight,
// scores accumulate atomically, and two outcome tiers follow —
// discouragement (deprioritized as proxy / failover candidate) at a fixed
// threshold, and an instant ban for offenses that carry cryptographic proof
// (wire/protocol violations). `NoBan`-style permission flags exempt trusted
// peers from standing loss while their scores stay visible.
//
// Robustness against reporter abuse is structural, not statistical:
//  * Epoch buffering. Reports are queued and aggregated only at epoch
//    boundaries (one proxy round), after a canonical sort — the
//    outcome is a pure function of the report *multiset*, independent of
//    arrival order, so replayed sessions and permuted report streams score
//    identically.
//  * Proxy-vantage verification. The proxy assignment is random and
//    verifiable (§III-B): a report claiming proxy vantage for a
//    simulation-grade check is checked against the reporter's own view of
//    the schedule (±1 round for grace/failover windows). A forged vantage
//    costs the *reporter* a kFalseAccusation penalty — Sybils that escalate
//    smears to fake proxy convictions discourage themselves.
//  * Witness evidence corroborates, never convicts. A colluding witness
//    clique can fabricate unlimited witness-vantage reports; since a
//    cheater cannot choose to be a victim's proxy, conviction requires the
//    (unforgeable) proxy component. Witness support only scales it up.
//  * Epoch-snapshot credibility. Witness support is weighted by the
//    reporter's credibility as of the epoch *start*, so mid-epoch smears
//    cannot bootstrap each other.
//  * Frozen standing across disconnects. Scores neither decay nor reset
//    while a player is down; a completed rejoin refunds only the
//    silence-driven penalties (escape/rate) the crash itself produced —
//    the detector's churn absolution, mirrored — so crash+rejoin cannot
//    wash a rating.
//
// Dependency note: reputation sits below core (core links it), so proxy
// lookups and metric sinks are injected as std::function hooks.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/ids.hpp"
#include "verify/report.hpp"

namespace watchmen::reputation {

/// Typed penalty reasons, one per paper check family plus the engine's own
/// rebound penalty. Kept dense: arrays index by the enum value.
enum class PenaltyReason : std::uint8_t {
  kPositionViolation = 0,       ///< impossible moves (speed hack, teleport)
  kGuidanceDivergence = 1,      ///< dead-reckoning predictions vs path (§V-A)
  kBogusKillClaim = 2,          ///< kill claims failing plausibility (§V-A)
  kUnjustifiedSubscription = 3, ///< IS/VS subscription without sight (§V-A)
  kRateViolation = 4,           ///< dissemination-frequency violations (§V-A)
  kEscapeSilence = 5,           ///< silent towards the proxy while playing
  kAimAnomaly = 6,              ///< statistical aim precision (Table I)
  kWireViolation = 7,           ///< bad signature / malformed wire (proof-carrying)
  kProtocolViolation = 8,       ///< indirect-communication rule broken (proof-carrying)
  kFalseAccusation = 9,         ///< forged proxy vantage in a report (engine-issued)
};
constexpr int kNumPenaltyReasons = 10;

const char* to_string(PenaltyReason r);

/// Maps a detector check type onto its penalty reason.
PenaltyReason reason_of(verify::CheckType t);

/// Per-reason penalty weights (score units per full-severity conviction).
/// Modeled on bitcoin's graded `Misbehaving` deltas: nuisance-grade offenses
/// need repetition to cross the discouragement threshold; proof-carrying
/// offenses cross it in one step.
namespace penalty {
inline constexpr double kPosition = 20.0;
inline constexpr double kGuidance = 10.0;
inline constexpr double kKill = 25.0;
inline constexpr double kSubscription = 15.0;
inline constexpr double kRate = 10.0;
inline constexpr double kEscape = 5.0;
inline constexpr double kAim = 15.0;
inline constexpr double kWire = 100.0;
inline constexpr double kProtocol = 100.0;
inline constexpr double kFalseAccusation = 25.0;
}  // namespace penalty

/// Score at which standing drops to kDiscouraged (bitcoin's
/// DISCOURAGEMENT_THRESHOLD shape: ~several nuisance offenses or one
/// proof-carrying one).
inline constexpr double kDiscouragementThreshold = 100.0;
/// Accumulated score at which standing drops to kBanned even without an
/// instant-ban conviction.
inline constexpr double kBanScore = 300.0;
/// Consecutive penalty-free epochs before decay starts.
inline constexpr int kDecayQuietEpochs = 2;
/// Multiplicative score decay per quiet epoch past the threshold.
inline constexpr double kDecayFactor = 0.75;
/// Scores below this snap to zero during decay.
inline constexpr double kDecayFloor = 0.25;
/// Severity below this (post-discount) is noise, not evidence: an honest
/// check that barely fired must not accrete into standing loss.
inline constexpr double kSeverityFloor = 0.15;
/// Cap on conviction units per (subject, reason) per epoch. Bounds what a
/// burst of duplicate evidence — honest or hostile — can cost.
inline constexpr double kMaxUnits = 1.5;
/// How much corroborating witness support can scale a proxy conviction
/// (1 + bonus at full support).
inline constexpr double kWitnessBonus = 0.5;
/// Minimum units for an instant-ban reason to latch the ban (sub-floor
/// proof-carrying reports still score, but don't hard-ban).
inline constexpr double kInstantBanMinUnits = 0.5;

double penalty_weight(PenaltyReason r);

/// Proof-carrying reasons: the report corresponds to evidence the reporter
/// could not fabricate (a signature that fails to verify, a sealed message
/// that arrived outside the proxy chain). One full-severity conviction is an
/// instant ban.
bool is_instant_ban(PenaltyReason r);

/// Reasons whose kProxy-vantage claims are validated against the schedule.
/// Proof-carrying reasons are exempt: any receiver holds the evidence.
bool is_vantage_checked(PenaltyReason r);

/// Silence-driven reasons refunded when a crash+rejoin cycle completes.
bool is_silence_driven(PenaltyReason r);

/// Bitcoin NetPermissionFlags-style bitmask. Only kNoBan matters to the
/// engine today; the type leaves room for more grants.
enum class PermissionFlags : std::uint32_t {
  kNone = 0,
  kNoBan = 1u << 0,  ///< standing never drops below kGood (score still kept)
};

constexpr PermissionFlags operator|(PermissionFlags a, PermissionFlags b) {
  return static_cast<PermissionFlags>(static_cast<std::uint32_t>(a) |
                                      static_cast<std::uint32_t>(b));
}
constexpr PermissionFlags operator&(PermissionFlags a, PermissionFlags b) {
  return static_cast<PermissionFlags>(static_cast<std::uint32_t>(a) &
                                      static_cast<std::uint32_t>(b));
}
constexpr bool has_permission(PermissionFlags flags, PermissionFlags f) {
  return (flags & f) != PermissionFlags::kNone;
}

/// Two-tier outcome (bitcoin discouragement vs. ban). Discouraged players
/// keep playing but lose eligibility as proxy / failover candidates; banned
/// players additionally carry the instant-ban latch.
enum class Standing : std::uint8_t {
  kGood = 0,
  kDiscouraged = 1,
  kBanned = 2,
};

const char* to_string(Standing s);

/// Per-reason aggregate counters (feed the obs registry mirror).
struct ReasonStats {
  std::uint64_t reports = 0;        ///< reports submitted under this reason
  std::uint64_t convictions = 0;    ///< epoch aggregations that applied score
  double applied_units = 0.0;       ///< severity units applied
  double applied_score = 0.0;       ///< score applied (units x weight)
  double refunded_score = 0.0;      ///< returned by rejoin absolution
};

class MisbehaviorEngine {
 public:
  /// True when `reporter` plausibly held proxy vantage over `subject` around
  /// `frame`. The session asks the reporter's own pool view, ±1 round
  /// (reports come only from its local peers; a false answer makes the
  /// claim a forgery).
  using ProxyVantageFn =
      std::function<bool(PlayerId reporter, PlayerId subject, Frame frame)>;
  /// Fired for every applied penalty (epoch close), after the score moved.
  using PenaltySignalFn = std::function<void(
      PlayerId subject, PenaltyReason reason, double amount, double score)>;

  /// `epoch_frames` is the aggregation epoch; the session passes its
  /// renewal_frames (one proxy round). Throws std::invalid_argument unless
  /// it is positive.
  MisbehaviorEngine(std::size_t n_players, Frame epoch_frames);

  std::size_t num_players() const { return players_.size(); }

  void set_proxy_vantage_check(ProxyVantageFn fn) { vantage_ok_ = std::move(fn); }
  void set_penalty_signal(PenaltySignalFn fn) { signal_ = std::move(fn); }
  void set_permissions(PlayerId p, PermissionFlags flags);
  PermissionFlags permissions(PlayerId p) const;

  /// Queues a detector verdict for the current epoch. `discount` carries the
  /// detector's loss-awareness (fault-window discount) into the severity;
  /// values are clamped to [0,1]. Self-reports and out-of-range ids are
  /// rejected (counted, never scored).
  void submit(const verify::CheatReport& r, double discount = 1.0);

  /// Closes every epoch whose end has passed `f`. Penalties, decay and the
  /// next epoch's credibility snapshots all happen here.
  void advance_to_frame(Frame f);

  /// Freezes the player's standing: no decay, and silence-driven penalties
  /// applied from here on become refundable if the absence turns out to be
  /// a completed crash+rejoin cycle.
  void on_disconnect(PlayerId p, Frame f);

  /// Completes a crash+rejoin cycle: unfreezes, refunds the silence-driven
  /// penalties the gap produced, and drops queued silence evidence stamped
  /// inside the gap. Deliberate cheating (other reasons) carries forward.
  void on_rejoin(PlayerId p, Frame f);

  // Queries are total: out-of-range subjects read as pristine.
  double score(PlayerId p) const;
  Standing standing(PlayerId p) const;
  bool discouraged(PlayerId p) const { return standing(p) != Standing::kGood; }
  /// Reporter credibility snapshot for the current epoch, in [0,1].
  double credibility(PlayerId p) const;

  std::int64_t current_epoch() const { return epoch_; }
  const ReasonStats& stats(PenaltyReason r) const;
  std::uint64_t rejected_reports() const { return rejected_reports_; }
  std::uint64_t forged_vantage_reports() const { return forged_vantage_; }
  /// Players currently below kGood standing, ascending by id.
  std::vector<PlayerId> discouraged_players() const;

 private:
  struct AppliedPenalty {
    std::int64_t epoch = 0;
    PenaltyReason reason = PenaltyReason::kPositionViolation;
    double amount = 0.0;
  };

  struct PlayerState {
    /// Atomic so cross-thread observers (registry collectors, benches) read
    /// scores without tearing; mutation happens on the frame thread.
    std::atomic<double> score{0.0};
    bool ban_latch = false;
    int quiet_epochs = 0;
    bool frozen = false;
    Frame frozen_at = -1;
    /// Silence evidence stamped before this frame belongs to an absolved
    /// crash gap and is dropped at submit time.
    Frame absolve_silence_before = -1;
    PermissionFlags perms = PermissionFlags::kNone;
    double credibility = 1.0;  ///< epoch-start snapshot
    std::vector<AppliedPenalty> history;  ///< for rejoin refunds

    PlayerState() = default;
    PlayerState(const PlayerState&) = delete;
    PlayerState& operator=(const PlayerState&) = delete;
  };

  struct PendingReport {
    PlayerId reporter = 0;
    PlayerId subject = 0;
    PenaltyReason reason = PenaltyReason::kPositionViolation;
    verify::Vantage vantage = verify::Vantage::kOther;
    Frame frame = 0;
    double severity = 0.0;  ///< rating mapped to [0,1], discount applied
  };

  void close_epoch();
  void apply_penalty(PlayerId subject, PenaltyReason reason, double units,
                     std::vector<bool>& penalized);
  void add_score(PlayerState& st, double delta);

  Frame epoch_frames_;
  ProxyVantageFn vantage_ok_;
  PenaltySignalFn signal_;
  std::vector<PlayerState> players_;
  std::vector<PendingReport> pending_;
  std::int64_t epoch_ = 0;
  std::uint64_t rejected_reports_ = 0;
  std::uint64_t forged_vantage_ = 0;
  ReasonStats stats_[kNumPenaltyReasons];
};

}  // namespace watchmen::reputation
