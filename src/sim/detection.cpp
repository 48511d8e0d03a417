#include "sim/detection.hpp"

#include <algorithm>
#include <memory>

namespace watchmen::sim {

const char* to_string(Verification v) {
  switch (v) {
    case Verification::kPosition: return "position";
    case Verification::kKill: return "kill";
    case Verification::kGuidance: return "guidance";
    case Verification::kISSub: return "is-sub";
    case Verification::kVSSub: return "vs-sub";
  }
  return "?";
}

namespace {

verify::CheckType check_type_of(Verification v) {
  switch (v) {
    case Verification::kPosition: return verify::CheckType::kPosition;
    case Verification::kKill: return verify::CheckType::kKill;
    case Verification::kGuidance: return verify::CheckType::kGuidance;
    case Verification::kISSub: return verify::CheckType::kSubscriptionIS;
    case Verification::kVSSub: return verify::CheckType::kSubscriptionVS;
  }
  return verify::CheckType::kPosition;
}

core::MsgType msg_type_of(Verification v) {
  switch (v) {
    case Verification::kPosition: return core::MsgType::kStateUpdate;
    case Verification::kKill: return core::MsgType::kKillClaim;
    case Verification::kGuidance: return core::MsgType::kGuidance;
    case Verification::kISSub:
    case Verification::kVSSub: return core::MsgType::kSubscribe;
  }
  return core::MsgType::kStateUpdate;
}

std::unique_ptr<cheat::LoggedCheat> make_cheat(Verification v,
                                               const DetectionConfig& cfg,
                                               const game::GameTrace& trace,
                                               const game::GameMap& map,
                                               const core::WatchmenConfig& wm) {
  switch (v) {
    case Verification::kPosition:
      // "Cheaters move randomly at [several] times the acceptable speed."
      return std::make_unique<cheat::SpeedHackCheat>(cfg.seed, cfg.cheat_rate,
                                                     /*speed_factor=*/6.0);
    case Verification::kKill:
      return std::make_unique<cheat::FakeKillCheat>(
          cfg.seed, cfg.cheat_rate, cfg.cheater, trace.n_players);
    case Verification::kGuidance:
      return std::make_unique<cheat::GuidanceLieCheat>(cfg.seed,
                                                       /*rate=*/0.5, 4.0);
    case Verification::kISSub:
      return std::make_unique<cheat::BogusSubscriptionCheat>(
          cfg.seed, cfg.cheat_rate, cfg.cheater, trace, map,
          interest::SetKind::kInterest, wm.interest);
    case Verification::kVSSub:
      return std::make_unique<cheat::BogusSubscriptionCheat>(
          cfg.seed, cfg.cheat_rate, cfg.cheater, trace, map,
          interest::SetKind::kVision, wm.interest);
  }
  return nullptr;
}

}  // namespace

verify::Tolerance calibrate_guidance_tolerance(const game::GameTrace& trace,
                                               const game::GameMap& map,
                                               core::SessionOptions opts) {
  // With zero tolerance every guidance window is "suspicious" and its raw
  // deviation area surfaces in a report; the honest distribution of those
  // areas yields ā and σ_a.
  opts.watchmen.guidance_tolerance = verify::Tolerance{0.0, 0.0};
  core::WatchmenSession session(trace, map, opts);
  session.run();

  RunningStats areas;
  for (const verify::CheatReport& r : session.detector().reports()) {
    if (r.type == verify::CheckType::kGuidance &&
        r.vantage == verify::Vantage::kProxy) {
      areas.add(r.deviation);  // deviation == raw area when tolerance is 0
    }
  }
  if (areas.count() < 10) return verify::Tolerance{160.0, 160.0};  // fallback
  return verify::Tolerance{areas.mean(), areas.stddev()};
}

DetectionOutcome run_detection(const game::GameTrace& trace,
                               const game::GameMap& map, Verification v,
                               const DetectionConfig& cfg) {
  auto cheat = make_cheat(v, cfg, trace, map, cfg.session.watchmen);
  std::unordered_map<PlayerId, core::Misbehavior*> mbs{{cfg.cheater, cheat.get()}};

  core::WatchmenSession session(trace, map, cfg.session, mbs);
  session.run();

  const verify::CheckType want = check_type_of(v);

  DetectionOutcome out;
  out.injected = cheat->cheat_frames().size();

  // Sort high-confidence report frames per suspect for window matching.
  std::vector<Frame> vs_cheater;
  for (const verify::CheatReport& r : session.detector().reports()) {
    if (r.type != want) continue;
    if (r.weighted() < verify::kHighConfidenceThreshold) continue;
    if (r.suspect == cfg.cheater) {
      vs_cheater.push_back(r.frame);
    } else {
      ++out.false_positives;
    }
  }
  std::sort(vs_cheater.begin(), vs_cheater.end());

  for (Frame fc : cheat->cheat_frames()) {
    const auto lo = std::lower_bound(vs_cheater.begin(), vs_cheater.end(),
                                     fc - cfg.match_window);
    if (lo != vs_cheater.end() && *lo <= fc + cfg.match_window) ++out.detected;
  }

  // Honest same-type message volume (exact, from per-peer counters).
  const auto mt = static_cast<std::size_t>(msg_type_of(v));
  for (PlayerId p = 0; p < trace.n_players; ++p) {
    if (p == cfg.cheater) continue;
    out.honest_messages += session.peer(p).metrics().sent_by_type[mt];
  }

  // Reputation-layer verdicts (the engine aggregates the same report stream
  // into standing; bench/misbehavior_sweep.cpp gates on these).
  const reputation::MisbehaviorEngine& eng = session.misbehavior();
  out.cheater_score = eng.score(cfg.cheater);
  out.cheater_standing = eng.standing(cfg.cheater);
  for (const PlayerId p : eng.discouraged_players()) {
    if (p != cfg.cheater) ++out.honest_discouraged;
  }
  return out;
}

}  // namespace watchmen::sim
