// A full 48-player deathmatch with a mixed population of cheaters,
// end-to-end: gameplay -> protocol replay -> verification -> misbehavior
// scoring -> discouragement and bans. This is the scenario the paper's
// title promises: a large fast-paced game that stays playable while
// cheaters are caught during game play.
//
// The scenario doubles as the flight-recorder acceptance gate (ISSUE 5):
//   deathmatch_48 --record match.wmrec   captures the run (inputs + periodic
//                                        state digests) into a .wmrec file
//   deathmatch_48 --replay match.wmrec   re-runs it and exits nonzero unless
//                                        every checkpoint digest matches
// CI chains the two to prove the protocol stack is bit-deterministic;
// `--record match.wmrec --budget` records with the beacon budget on
// (other_update_budget = 16: a 48-player proxy has at most 46 Others, so
// the cap binds and the round-robin fan-out runs), and
// `--record match.wmrec --hardened` with the hardened profile, so the
// budgeted fan-out path and the retransmit jitter, heartbeats and failover
// are under the same gate.

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <vector>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "obs/recorder.hpp"

using namespace watchmen;

namespace {

game::GameTrace make_trace(const game::GameMap& map) {
  game::SessionConfig game_cfg;
  game_cfg.n_players = 48;
  game_cfg.n_frames = 1200;  // one minute
  game_cfg.n_humans = 40;    // plus 8 patrol bots
  game_cfg.seed = 2013;
  return game::record_session(map, game_cfg);
}

/// Cheater roster: four different cheats on four different players,
/// expressed as recordable CheatSpecs so the live run and the flight
/// recorder instantiate the exact same misbehaviors.
std::vector<obs::CheatSpec> make_roster() {
  return {
      {obs::RosterCheat::kSpeedHack, 0, {1, 0.08, 6.0}},
      {obs::RosterCheat::kFakeKill, 1, {2, 0.05}},
      {obs::RosterCheat::kGuidanceLie, 2, {3, 0.5, 4.0}},
      {obs::RosterCheat::kSuppressCorrect, 3, {40, 15}},
  };
}

core::SessionOptions make_options() {
  core::SessionOptions opts;
  opts.net = core::NetProfile::kKing;
  opts.loss_rate = 0.01;
  return opts;
}

/// `flag`: nullptr, "--budget" or "--hardened".
int record_mode(const char* path, const char* flag) {
  const game::GameMap map = game::make_longest_yard();
  obs::Recording rec;
  rec.options = make_options();
  if (flag && std::strcmp(flag, "--budget") == 0) {
    rec.options.watchmen.other_update_budget = 16;
  } else if (flag && std::strcmp(flag, "--hardened") == 0) {
    rec.options.watchmen.hardened = true;
  } else if (flag) {
    std::fprintf(stderr, "unknown flag %s\n", flag);
    return 2;
  }
  rec.cheats = make_roster();
  rec.trace = make_trace(map);
  obs::record_run(rec);
  rec.save(path);
  std::size_t checkpoints = 0;
  for (const auto& e : rec.events) {
    if (e.kind == obs::RecEventKind::kCheckpoint ||
        e.kind == obs::RecEventKind::kEnd) {
      ++checkpoints;
    }
  }
  std::printf("recorded %zu frames, %zu checkpoint digests -> %s\n",
              rec.trace.num_frames(), checkpoints, path);
  return 0;
}

int replay_mode(const char* path) {
  obs::Recording rec;
  try {
    rec = obs::Recording::load(path);
  } catch (const std::exception& e) {  // unreadable, or a DecodeError
    std::fprintf(stderr, "cannot replay %s: %s\n", path, e.what());
    return 2;
  }
  const obs::ReplayReport report = obs::replay_run(rec);
  if (report.ok) {
    std::printf("replay of %s: %zu/%zu checkpoints bit-identical\n", path,
                report.checkpoints_checked, report.checkpoints_checked);
    return 0;
  }
  std::printf("replay of %s DIVERGED at frame %lld (%zu checkpoints "
              "checked)\n",
              path, static_cast<long long>(report.first_divergence),
              report.checkpoints_checked);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if ((argc == 3 || argc == 4) && std::strcmp(argv[1], "--record") == 0) {
    return record_mode(argv[2], argc == 4 ? argv[3] : nullptr);
  }
  if (argc == 3 && std::strcmp(argv[1], "--replay") == 0) {
    return replay_mode(argv[2]);
  }
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: deathmatch_48 [--record file.wmrec "
                 "[--budget | --hardened] | --replay file.wmrec]\n");
    return 2;
  }

  const game::GameMap map = game::make_longest_yard();
  const game::GameTrace trace = make_trace(map);

  const std::vector<obs::CheatSpec> roster = make_roster();
  std::vector<std::unique_ptr<core::Misbehavior>> owned;
  const auto cheaters = obs::make_misbehaviors(roster, 48, owned);

  core::SessionOptions opts = make_options();
  core::WatchmenSession session(trace, map, opts, cheaters);
  session.run();

  // The misbehavior engine ran *online* inside the session (paper §V-B:
  // typed penalties per proxy round, discouragement / instant-ban tiers).
  const reputation::MisbehaviorEngine& engine = session.misbehavior();
  std::printf("%-8s %-12s %10s %9s %12s\n", "player", "cheat", "hc-reports",
              "m-score", "standing");
  const char* labels[4] = {"speed-hack", "fake-kills", "guidance", "suppress"};
  for (PlayerId p = 0; p < 12; ++p) {
    const auto& s = session.detector().summary(p);
    const bool is_cheater = p < 4;
    std::printf("%-8u %-12s %10llu %9.1f %12s\n", p,
                is_cheater ? labels[p] : "-",
                static_cast<unsigned long long>(s.high_confidence_reports),
                engine.score(p), to_string(engine.standing(p)));
  }

  int caught = 0, banned = 0, wrongly_caught = 0;
  for (PlayerId p = 0; p < 48; ++p) {
    if (p < 4 && engine.discouraged(p)) ++caught;
    if (p < 4 && engine.standing(p) == reputation::Standing::kBanned) ++banned;
    if (p >= 4 && engine.discouraged(p)) ++wrongly_caught;
  }
  std::printf("\ncheaters discouraged or banned: %d/4 (%d banned), honest "
              "players discouraged or banned: %d/44\n",
              caught, banned, wrongly_caught);

  const Samples ages = session.merged_update_ages();
  double late = 0;
  for (double v : ages.values()) late += (v >= 3.0);
  std::printf("gameplay stayed playable: %.2f%% of updates 3+ frames late "
              "(150 ms bound)\n",
              100.0 * late / static_cast<double>(ages.count()));
  return 0;
}
