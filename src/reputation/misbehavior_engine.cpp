#include "reputation/misbehavior_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace watchmen::reputation {

const char* to_string(PenaltyReason r) {
  switch (r) {
    case PenaltyReason::kPositionViolation: return "position_violation";
    case PenaltyReason::kGuidanceDivergence: return "guidance_divergence";
    case PenaltyReason::kBogusKillClaim: return "bogus_kill_claim";
    case PenaltyReason::kUnjustifiedSubscription: return "unjustified_subscription";
    case PenaltyReason::kRateViolation: return "rate_violation";
    case PenaltyReason::kEscapeSilence: return "escape_silence";
    case PenaltyReason::kAimAnomaly: return "aim_anomaly";
    case PenaltyReason::kWireViolation: return "wire_violation";
    case PenaltyReason::kProtocolViolation: return "protocol_violation";
    case PenaltyReason::kFalseAccusation: return "false_accusation";
  }
  return "unknown";
}

const char* to_string(Standing s) {
  switch (s) {
    case Standing::kGood: return "good";
    case Standing::kDiscouraged: return "discouraged";
    case Standing::kBanned: return "banned";
  }
  return "unknown";
}

PenaltyReason reason_of(verify::CheckType t) {
  switch (t) {
    case verify::CheckType::kPosition: return PenaltyReason::kPositionViolation;
    case verify::CheckType::kGuidance: return PenaltyReason::kGuidanceDivergence;
    case verify::CheckType::kKill: return PenaltyReason::kBogusKillClaim;
    case verify::CheckType::kSubscriptionIS:
    case verify::CheckType::kSubscriptionVS:
      return PenaltyReason::kUnjustifiedSubscription;
    case verify::CheckType::kRate: return PenaltyReason::kRateViolation;
    case verify::CheckType::kEscape: return PenaltyReason::kEscapeSilence;
    case verify::CheckType::kAimbot: return PenaltyReason::kAimAnomaly;
    case verify::CheckType::kSignature: return PenaltyReason::kWireViolation;
    case verify::CheckType::kConsistency: return PenaltyReason::kProtocolViolation;
  }
  return PenaltyReason::kProtocolViolation;
}

double penalty_weight(PenaltyReason r) {
  switch (r) {
    case PenaltyReason::kPositionViolation: return penalty::kPosition;
    case PenaltyReason::kGuidanceDivergence: return penalty::kGuidance;
    case PenaltyReason::kBogusKillClaim: return penalty::kKill;
    case PenaltyReason::kUnjustifiedSubscription: return penalty::kSubscription;
    case PenaltyReason::kRateViolation: return penalty::kRate;
    case PenaltyReason::kEscapeSilence: return penalty::kEscape;
    case PenaltyReason::kAimAnomaly: return penalty::kAim;
    case PenaltyReason::kWireViolation: return penalty::kWire;
    case PenaltyReason::kProtocolViolation: return penalty::kProtocol;
    case PenaltyReason::kFalseAccusation: return penalty::kFalseAccusation;
  }
  return 0.0;
}

bool is_instant_ban(PenaltyReason r) {
  return r == PenaltyReason::kWireViolation ||
         r == PenaltyReason::kProtocolViolation;
}

bool is_vantage_checked(PenaltyReason r) {
  // Proof-carrying reasons are reported by whoever received the offending
  // bytes (any subscriber sees a bad signature), so a proxy-vantage claim on
  // them proves nothing either way; everything simulation-grade is
  // checkable against the verifiable schedule. kFalseAccusation is
  // engine-issued, never submitted.
  return !is_instant_ban(r) && r != PenaltyReason::kFalseAccusation;
}

bool is_silence_driven(PenaltyReason r) {
  return r == PenaltyReason::kEscapeSilence ||
         r == PenaltyReason::kRateViolation;
}

MisbehaviorEngine::MisbehaviorEngine(std::size_t n_players, Frame epoch_frames)
    : epoch_frames_(epoch_frames), players_(n_players) {
  if (epoch_frames <= 0) throw std::invalid_argument("epoch must be positive");
}

void MisbehaviorEngine::set_permissions(PlayerId p, PermissionFlags flags) {
  if (p >= players_.size()) return;
  players_[p].perms = flags;
}

PermissionFlags MisbehaviorEngine::permissions(PlayerId p) const {
  return p < players_.size() ? players_[p].perms : PermissionFlags::kNone;
}

void MisbehaviorEngine::submit(const verify::CheatReport& r, double discount) {
  if (r.suspect >= players_.size() || r.verifier >= players_.size() ||
      r.verifier == r.suspect) {
    ++rejected_reports_;
    return;
  }
  const PenaltyReason reason = reason_of(r.type);
  ++stats_[static_cast<std::size_t>(reason)].reports;
  // Ratings run 1 (clean) .. 10 (certain); map onto [0,1] severity and fold
  // in the detector's loss-aware discount. Out-of-range confidence clamps
  // instead of corrupting the tally.
  const double rating = std::clamp(r.rating, 1.0, 10.0);
  const double severity = (rating - 1.0) / 9.0 * std::clamp(discount, 0.0, 1.0);
  if (severity < kSeverityFloor) return;
  // Evidence from an absolved crash gap: the silence was churn, not cheating.
  if (is_silence_driven(reason) &&
      r.frame < players_[r.suspect].absolve_silence_before) {
    ++rejected_reports_;
    return;
  }
  PendingReport p;
  p.reporter = r.verifier;
  p.subject = r.suspect;
  p.reason = reason;
  p.vantage = r.vantage;
  p.frame = r.frame;
  p.severity = severity;
  pending_.push_back(p);
}

void MisbehaviorEngine::advance_to_frame(Frame f) {
  while ((epoch_ + 1) * epoch_frames_ <= f) close_epoch();
}

void MisbehaviorEngine::add_score(PlayerState& st, double delta) {
  const double next =
      std::max(0.0, st.score.load(std::memory_order_relaxed) + delta);
  st.score.store(next, std::memory_order_relaxed);
}

void MisbehaviorEngine::apply_penalty(PlayerId subject, PenaltyReason reason,
                                      double units,
                                      std::vector<bool>& penalized) {
  if (units <= 0.0) return;
  PlayerState& st = players_[subject];
  const double amount = units * penalty_weight(reason);
  add_score(st, amount);
  st.history.push_back({epoch_, reason, amount});
  penalized[subject] = true;
  if (is_instant_ban(reason) && units >= kInstantBanMinUnits) {
    st.ban_latch = true;
  }
  ReasonStats& rs = stats_[static_cast<std::size_t>(reason)];
  ++rs.convictions;
  rs.applied_units += units;
  rs.applied_score += amount;
  if (signal_) {
    signal_(subject, reason, amount, st.score.load(std::memory_order_relaxed));
  }
}

void MisbehaviorEngine::close_epoch() {
  // Canonical order first: the epoch outcome must be a pure function of the
  // report multiset, so replayed or re-ordered streams score identically.
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingReport& a, const PendingReport& b) {
              return std::tie(a.subject, a.reason, a.reporter, a.frame,
                              a.vantage, a.severity) <
                     std::tie(b.subject, b.reason, b.reporter, b.frame,
                              b.vantage, b.severity);
            });

  // Vantage verification: proxy assignment is random and verifiable
  // (§III-B), so a simulation-grade report claiming proxy vantage must name
  // a plausible scheduled proxy (±1 round covers grace and failover
  // adoption). Forgeries are dropped and rebound on the reporter.
  std::vector<PendingReport> valid;
  valid.reserve(pending_.size());
  std::vector<std::pair<PlayerId, PlayerId>> forgers;  // (reporter, subject)
  for (const PendingReport& p : pending_) {
    if (vantage_ok_ && p.vantage == verify::Vantage::kProxy &&
        is_vantage_checked(p.reason) &&
        !vantage_ok_(p.reporter, p.subject, p.frame)) {
      ++forged_vantage_;
      forgers.emplace_back(p.reporter, p.subject);
      continue;
    }
    valid.push_back(p);
  }

  std::vector<bool> penalized(players_.size(), false);

  // Aggregate per (subject, reason) group over the sorted run.
  std::size_t i = 0;
  while (i < valid.size()) {
    const PlayerId subject = valid[i].subject;
    const PenaltyReason reason = valid[i].reason;
    double proxy_sev = 0.0;   // strongest validated proxy-vantage report
    double any_sev = 0.0;     // strongest report of any vantage
    double witness_support = 0.0;  // sum of per-reporter best witness weight
    double reporter_best = 0.0;
    PlayerId reporter = kInvalidPlayer;
    const auto flush_reporter = [&] {
      witness_support += reporter_best;
      reporter_best = 0.0;
    };
    for (; i < valid.size() && valid[i].subject == subject &&
           valid[i].reason == reason;
         ++i) {
      const PendingReport& p = valid[i];
      if (p.reporter != reporter) {
        flush_reporter();
        reporter = p.reporter;
      }
      any_sev = std::max(any_sev, p.severity);
      if (p.vantage == verify::Vantage::kProxy) {
        proxy_sev = std::max(proxy_sev, p.severity);
      } else {
        // Witness weight: severity scaled by the vantage confidence and the
        // reporter's epoch-start credibility — a near-discouraged smear
        // campaign carries no voice. Per-reporter max, so one witness
        // repeating itself counts once.
        reporter_best = std::max(
            reporter_best, p.severity * verify::confidence_weight(p.vantage) *
                               players_[p.reporter].credibility);
      }
    }
    flush_reporter();

    double units = 0.0;
    if (is_instant_ban(reason)) {
      // Proof-carrying: any receiver holds the offending bytes, and the
      // cheat layer cannot forge a failed signature — one report convicts.
      units = any_sev;
    } else if (proxy_sev > 0.0) {
      // Witness evidence corroborates, never convicts: a cheater cannot
      // choose to be its victim's proxy, so requiring the proxy component
      // caps what a witness clique of any size can do at exactly nothing.
      units = std::min(
          kMaxUnits,
          proxy_sev *
              (1.0 + kWitnessBonus * std::min(1.0, witness_support)));
    }
    apply_penalty(subject, reason, units, penalized);
  }

  // Forged-vantage rebounds: one unit per framed subject, capped like any
  // other reason. A Sybil escalating its smears to fake proxy convictions
  // discourages itself within an epoch or two.
  std::sort(forgers.begin(), forgers.end());
  forgers.erase(std::unique(forgers.begin(), forgers.end()), forgers.end());
  std::size_t j = 0;
  while (j < forgers.size()) {
    const PlayerId who = forgers[j].first;
    double count = 0.0;
    for (; j < forgers.size() && forgers[j].first == who; ++j) count += 1.0;
    apply_penalty(who, PenaltyReason::kFalseAccusation,
                  std::min(kMaxUnits, count), penalized);
  }

  // Decay after sustained quiet, then snapshot next epoch's credibility.
  // Frozen (disconnected) players are skipped: standing neither decays nor
  // accrues quiet credit while away, so a crash cannot launder a score.
  for (PlayerId p = 0; p < players_.size(); ++p) {
    PlayerState& st = players_[p];
    if (st.frozen) continue;
    if (penalized[p]) {
      st.quiet_epochs = 0;
    } else {
      ++st.quiet_epochs;
      if (st.quiet_epochs > kDecayQuietEpochs) {
        double s = st.score.load(std::memory_order_relaxed) * kDecayFactor;
        if (s < kDecayFloor) s = 0.0;
        st.score.store(s, std::memory_order_relaxed);
      }
    }
    st.credibility = std::clamp(
        1.0 - st.score.load(std::memory_order_relaxed) /
                  kDiscouragementThreshold,
        0.0, 1.0);
  }

  pending_.clear();
  ++epoch_;
}

void MisbehaviorEngine::on_disconnect(PlayerId p, Frame f) {
  if (p >= players_.size()) return;
  players_[p].frozen = true;
  players_[p].frozen_at = f;
}

void MisbehaviorEngine::on_rejoin(PlayerId p, Frame f) {
  if (p >= players_.size()) return;
  PlayerState& st = players_[p];
  st.frozen = false;
  st.absolve_silence_before = std::max(st.absolve_silence_before, f);
  const std::int64_t gap_epoch =
      st.frozen_at >= 0 ? st.frozen_at / epoch_frames_ : epoch_;
  // Refund the silence-driven penalties the crash gap produced — the
  // detector's churn absolution, mirrored. Frozen players skip decay, so
  // the refund is exact; everything else (deliberate cheating before the
  // crash) carries forward, which is what defeats the rating wash.
  double refund = 0.0;
  std::erase_if(st.history, [&](const AppliedPenalty& h) {
    if (h.epoch < gap_epoch || !is_silence_driven(h.reason)) return false;
    refund += h.amount;
    stats_[static_cast<std::size_t>(h.reason)].refunded_score += h.amount;
    return true;
  });
  if (refund > 0.0) add_score(st, -refund);
  // Queued (not yet aggregated) silence evidence from the gap goes too.
  std::erase_if(pending_, [&](const PendingReport& r) {
    return r.subject == p && is_silence_driven(r.reason) && r.frame < f;
  });
}

double MisbehaviorEngine::score(PlayerId p) const {
  return p < players_.size()
             ? players_[p].score.load(std::memory_order_relaxed)
             : 0.0;
}

Standing MisbehaviorEngine::standing(PlayerId p) const {
  if (p >= players_.size()) return Standing::kGood;
  const PlayerState& st = players_[p];
  if (has_permission(st.perms, PermissionFlags::kNoBan)) return Standing::kGood;
  const double s = st.score.load(std::memory_order_relaxed);
  if (st.ban_latch || s >= kBanScore) return Standing::kBanned;
  if (s >= kDiscouragementThreshold) return Standing::kDiscouraged;
  return Standing::kGood;
}

double MisbehaviorEngine::credibility(PlayerId p) const {
  return p < players_.size() ? players_[p].credibility : 1.0;
}

const ReasonStats& MisbehaviorEngine::stats(PenaltyReason r) const {
  return stats_[static_cast<std::size_t>(r)];
}

std::vector<PlayerId> MisbehaviorEngine::discouraged_players() const {
  std::vector<PlayerId> out;
  for (PlayerId p = 0; p < players_.size(); ++p) {
    if (discouraged(p)) out.push_back(p);
  }
  return out;
}

}  // namespace watchmen::reputation
