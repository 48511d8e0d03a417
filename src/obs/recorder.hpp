#pragma once
// Deterministic flight recorder (ISSUE 5 tentpole, piece 3; DESIGN.md §5e).
//
// A Recording captures *everything a session run depends on* — the RNG
// seed and session options, the fault plan, the cheat roster, scripted
// churn, and the ground-truth game trace — plus periodic state checkpoints
// (SHA-256 digests over the full observable session state). Because a
// WatchmenSession is a pure function of those inputs, a saved `.wmrec`
// file replays to bit-identical checkpoints; replay_run() re-runs the
// recording and asserts exactly that, turning "was this run deterministic?"
// into a ctest/CI gate and any captured anomaly into a reproducible case.
//
// Wire format (versioned, little-endian, via util/bytes):
//   magic "WMREC" | u16 version | options | cheat roster | trace blob |
//   checkpoint_period | event stream (checkpoints, scripted churn, end).
// Decoding malformed input throws watchmen::DecodeError — never aborts —
// so the format is fuzzable (fuzz/fuzz_record.cpp). Versioning rules are
// documented in DESIGN.md §5e.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/misbehavior.hpp"
#include "core/session.hpp"
#include "crypto/sha256.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "util/ids.hpp"

namespace watchmen::obs {

/// Cheats a recording can script. Only parameter-driven profiles are
/// recordable (trace-peeking cheats like the aimbot hold pointers into the
/// live trace; they can be reconstructed the same way on replay but are out
/// of scope for v1).
enum class RosterCheat : std::uint8_t {
  kSpeedHack = 0,        ///< params: seed, rate, speed_factor
  kGuidanceLie = 1,      ///< params: seed, rate, magnitude
  kFakeKill = 2,         ///< params: seed, rate
  kSuppressCorrect = 3,  ///< params: period, burst
  kFastRate = 4,         ///< params: extra, from, until
  kEscape = 5,           ///< params: when
  kTimeCheat = 6,        ///< params: delay, from, until
};
constexpr unsigned kNumRosterCheats = 7;

const char* to_string(RosterCheat c);

/// Expected params.size() for each roster cheat (decode validation).
std::size_t roster_cheat_arity(RosterCheat c);

struct CheatSpec {
  RosterCheat kind = RosterCheat::kSpeedHack;
  PlayerId player = kInvalidPlayer;
  std::vector<double> params;

  bool operator==(const CheatSpec&) const = default;
};

/// Flight-recorder event stream entry. Checkpoints and the end marker are
/// *outputs* (appended by record_run, verified by replay_run); disconnect /
/// reconnect events are *inputs* (scripted churn both runs apply).
enum class RecEventKind : std::uint8_t {
  kCheckpoint = 0,  ///< frame + state digest
  kDisconnect = 1,  ///< scripted WatchmenSession::disconnect(player)
  kReconnect = 2,   ///< scripted WatchmenSession::reconnect(player)
  kEnd = 3,         ///< final frame + state digest
};
constexpr unsigned kNumRecEventKinds = 4;

struct RecEvent {
  RecEventKind kind = RecEventKind::kCheckpoint;
  Frame frame = 0;
  PlayerId player = kInvalidPlayer;  ///< churn events only
  crypto::Digest digest{};           ///< checkpoint / end events only

  bool operator==(const RecEvent&) const = default;
};

struct Recording {
  // v6: every field of WatchmenConfig plus misbehavior_enforcement. v5
  // carried the hardened profile as six separate fields, v4 also the two
  // retired delta-coding fields. The protocol constants (guidance cadence,
  // retransmit and watchdog timing, the profiles' loss tolerances,
  // misbehavior scoring, detector thresholds) are not recorded: they are
  // part of the binary. Older files are rejected, not guessed at
  // (DESIGN.md §5e).
  static constexpr std::uint16_t kVersion = 6;

  core::SessionOptions options;       ///< includes seed + FaultPlan
  std::vector<CheatSpec> cheats;      ///< roster, rebuilt on replay
  game::GameTrace trace;              ///< ground-truth inputs
  Frame checkpoint_period = 20;       ///< frames between state digests
  std::vector<RecEvent> events;       ///< churn inputs + digest outputs

  std::vector<std::uint8_t> serialize() const;
  static Recording deserialize(std::span<const std::uint8_t> bytes);

  void save(const std::string& path) const;
  static Recording load(const std::string& path);

  /// Drops checkpoint/end events (outputs), keeping the scripted churn —
  /// record_run calls this so re-recording is idempotent.
  void clear_outputs();
};

/// SHA-256 over the full observable session state: frame, per-peer metrics
/// and remote knowledge, network stats, detector log. Two runs of the same
/// recording produce identical digests at identical frames (same binary;
/// cross-build identity additionally needs identical FP code generation).
crypto::Digest session_digest(const core::WatchmenSession& s);

/// Reconstructs the recording's map from trace.map_name.
/// Unknown names throw DecodeError.
game::GameMap map_for(const Recording& rec);

/// Instantiates the cheat roster. The returned map points into `owned`.
std::unordered_map<PlayerId, core::Misbehavior*> make_misbehaviors(
    const std::vector<CheatSpec>& cheats, std::size_t n_players,
    std::vector<std::unique_ptr<core::Misbehavior>>& owned);

/// Runs the session described by `rec` from scratch, applying scripted
/// churn and appending a checkpoint digest every checkpoint_period frames
/// plus a final kEnd digest. Existing outputs are cleared first.
void record_run(Recording& rec);

struct ReplayReport {
  bool ok = true;
  std::size_t checkpoints_checked = 0;
  Frame first_divergence = -1;  ///< frame of the first mismatch, or -1
};

/// Re-runs the recording and compares every recorded digest against the
/// live session state. All digests are checked even past a divergence.
ReplayReport replay_run(const Recording& rec);

}  // namespace watchmen::obs
