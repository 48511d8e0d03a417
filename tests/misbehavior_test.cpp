// Tests for src/reputation/misbehavior_engine: typed penalties, epoch
// aggregation, the discouragement/ban tiers, and the structural defenses
// (witness-corroboration-only, vantage forgery rebounds, crash-gap refunds).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "reputation/misbehavior_engine.hpp"
#include "verify/report.hpp"

namespace watchmen::reputation {
namespace {

using verify::CheatReport;
using verify::CheckType;
using verify::Vantage;

/// Short epochs keep the tests' frame arithmetic readable.
constexpr Frame kEpoch = 10;

CheatReport make_report(PlayerId verifier, PlayerId suspect, CheckType type,
                        Vantage vantage, Frame frame, double rating) {
  CheatReport r;
  r.verifier = verifier;
  r.suspect = suspect;
  r.type = type;
  r.vantage = vantage;
  r.frame = frame;
  r.rating = rating;
  return r;
}

TEST(MisbehaviorEngine, ZeroAndNegativeConfidenceClampToNoEvidence) {
  MisbehaviorEngine eng(4, kEpoch);
  // Zero and negative discounts clamp to 0 severity: dropped, never scored.
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0),
             0.0);
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 4, 10.0),
             -2.5);
  // Ratings below the 1..10 scale clamp to "clean".
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 5, -7.0),
             1.0);
  eng.advance_to_frame(10);
  EXPECT_DOUBLE_EQ(eng.score(0), 0.0);
  EXPECT_EQ(eng.stats(PenaltyReason::kPositionViolation).convictions, 0u);
}

TEST(MisbehaviorEngine, OverRangeRatingAndDiscountClampToFullSeverity) {
  MisbehaviorEngine eng(4, kEpoch);
  // rating 50 / discount 3 clamp to severity exactly 1.0, not beyond.
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 50.0),
             3.0);
  eng.advance_to_frame(10);
  EXPECT_DOUBLE_EQ(eng.score(0), penalty::kPosition);
}

TEST(MisbehaviorEngine, SubFloorSeverityIsNoiseNotEvidence) {
  MisbehaviorEngine eng(4, kEpoch);
  // rating 2 -> severity 1/9 ~ 0.11 < kSeverityFloor: an honest check that
  // barely fired must not accrete into standing loss over a long session.
  static_assert(1.0 / 9.0 < kSeverityFloor);
  for (Frame f = 0; f < 100; ++f) {
    eng.submit(make_report(1, 0, CheckType::kGuidance, Vantage::kProxy, f, 2.0));
  }
  eng.advance_to_frame(100);
  EXPECT_DOUBLE_EQ(eng.score(0), 0.0);
}

TEST(MisbehaviorEngine, EpochMustBePositive) {
  EXPECT_THROW(MisbehaviorEngine(4, 0), std::invalid_argument);
  EXPECT_THROW(MisbehaviorEngine(4, -40), std::invalid_argument);
}

TEST(MisbehaviorEngine, SelfReportsRejected) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.submit(make_report(2, 2, CheckType::kPosition, Vantage::kProxy, 1, 10.0));
  eng.advance_to_frame(10);
  EXPECT_EQ(eng.rejected_reports(), 1u);
  EXPECT_DOUBLE_EQ(eng.score(2), 0.0);
}

TEST(MisbehaviorEngine, QueriesAreTotalOnOutOfRangeIds) {
  MisbehaviorEngine eng(2, kEpoch);
  eng.submit(make_report(0, 99, CheckType::kPosition, Vantage::kProxy, 1, 10.0));
  eng.submit(make_report(99, 1, CheckType::kPosition, Vantage::kProxy, 1, 10.0));
  EXPECT_EQ(eng.rejected_reports(), 2u);
  EXPECT_DOUBLE_EQ(eng.score(99), 0.0);
  EXPECT_EQ(eng.standing(99), Standing::kGood);
  EXPECT_DOUBLE_EQ(eng.credibility(99), 1.0);
  eng.on_disconnect(99, 5);  // no crash
  eng.on_rejoin(99, 6);
  eng.set_permissions(99, PermissionFlags::kNoBan);
  EXPECT_EQ(eng.permissions(99), PermissionFlags::kNone);
}

TEST(MisbehaviorEngine, DecayReachesExactlyZeroAfterQuietEpochs) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  eng.advance_to_frame(10);
  ASSERT_DOUBLE_EQ(eng.score(0), penalty::kPosition);
  // Grace epochs first (kDecayQuietEpochs = 2), then geometric decay with a
  // snap-to-zero floor: a reformed player ends at exactly 0, not an epsilon.
  eng.advance_to_frame(10 * 30);
  EXPECT_DOUBLE_EQ(eng.score(0), 0.0);
  EXPECT_EQ(eng.standing(0), Standing::kGood);
  EXPECT_DOUBLE_EQ(eng.credibility(0), 1.0);
}

TEST(MisbehaviorEngine, DecayWaitsOutTheGraceEpochs) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  eng.advance_to_frame(10);
  const double s0 = eng.score(0);
  eng.advance_to_frame(30);  // 2 quiet epochs: still inside the grace window
  EXPECT_DOUBLE_EQ(eng.score(0), s0);
  eng.advance_to_frame(40);  // 3rd quiet epoch: decay kicks in
  EXPECT_LT(eng.score(0), s0);
}

TEST(MisbehaviorEngine, InstantBanOnProofCarryingOffense) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.submit(make_report(1, 0, CheckType::kSignature, Vantage::kOther, 3, 10.0));
  eng.advance_to_frame(10);
  EXPECT_EQ(eng.standing(0), Standing::kBanned);
  // The latch is sticky: decay can drain the score, the ban stays.
  eng.advance_to_frame(10 * 30);
  EXPECT_EQ(eng.standing(0), Standing::kBanned);
}

TEST(MisbehaviorEngine, NoBanPermissionOverridesInstantBan) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.set_permissions(0, PermissionFlags::kNoBan);
  eng.submit(make_report(1, 0, CheckType::kSignature, Vantage::kOther, 3, 10.0));
  eng.submit(make_report(1, 2, CheckType::kSignature, Vantage::kOther, 3, 10.0));
  eng.advance_to_frame(10);
  // Score stays visible; standing never drops.
  EXPECT_GT(eng.score(0), 0.0);
  EXPECT_EQ(eng.standing(0), Standing::kGood);
  EXPECT_EQ(eng.standing(2), Standing::kBanned) << "control without NoBan";
  EXPECT_EQ(eng.discouraged_players(), std::vector<PlayerId>{2});
}

TEST(MisbehaviorEngine, ThresholdCrossingExactlyAtBoundary) {
  // One full position conviction per epoch: consecutive penalized epochs
  // never decay, so the score climbs in exact steps of penalty::kPosition.
  static_assert(kDiscouragementThreshold / penalty::kPosition == 5.0);
  const auto convict = [](MisbehaviorEngine& eng, int epochs, double last) {
    for (int e = 0; e < epochs; ++e) {
      const Frame f = e * kEpoch + 3;
      eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, f,
                             10.0),
                 e + 1 == epochs ? last : 1.0);
      eng.advance_to_frame((e + 1) * kEpoch);
    }
  };
  MisbehaviorEngine at(4, kEpoch);
  convict(at, 5, 1.0);
  ASSERT_DOUBLE_EQ(at.score(0), kDiscouragementThreshold);
  EXPECT_EQ(at.standing(0), Standing::kDiscouraged)
      << "score == threshold discourages (>= semantics)";

  // The last conviction a hair short of full severity.
  MisbehaviorEngine below(4, kEpoch);
  convict(below, 5, 1.0 - 1e-9);
  ASSERT_LT(below.score(0), kDiscouragementThreshold);
  EXPECT_GT(below.score(0), kDiscouragementThreshold - 1e-6);
  EXPECT_EQ(below.standing(0), Standing::kGood) << "just under stays good";
}

TEST(MisbehaviorEngine, WitnessEvidenceAloneNeverConvicts) {
  MisbehaviorEngine eng(16, kEpoch);
  // A 14-strong clique floods witness-vantage fabrications against player 0
  // for many epochs. Without the (unforgeable) proxy component this caps at
  // exactly zero, not "small".
  for (Frame f = 0; f < 100; ++f) {
    for (PlayerId w = 2; w < 16; ++w) {
      eng.submit(make_report(w, 0, CheckType::kPosition,
                             Vantage::kInterestWitness, f, 10.0));
      eng.submit(make_report(w, 0, CheckType::kKill, Vantage::kVisionWitness,
                             f, 10.0));
    }
  }
  eng.advance_to_frame(100);
  EXPECT_DOUBLE_EQ(eng.score(0), 0.0);
  EXPECT_EQ(eng.standing(0), Standing::kGood);
}

TEST(MisbehaviorEngine, WitnessSupportScalesProxyConvictionUpToCap) {
  MisbehaviorEngine eng(16, kEpoch);
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  for (PlayerId w = 2; w < 16; ++w) {
    eng.submit(make_report(w, 0, CheckType::kPosition,
                           Vantage::kInterestWitness, 3, 10.0));
  }
  eng.advance_to_frame(10);
  // Full witness support: units = min(kMaxUnits, 1 * (1 + kWitnessBonus)).
  const double expect_units = std::min(kMaxUnits, 1.0 + kWitnessBonus);
  EXPECT_DOUBLE_EQ(eng.score(0), expect_units * penalty::kPosition);
}

TEST(MisbehaviorEngine, ForgedProxyVantageReboundsOnReporter) {
  MisbehaviorEngine eng(8, kEpoch);
  // The verifiable schedule says the reporter never proxied these subjects.
  eng.set_proxy_vantage_check(
      [](PlayerId, PlayerId, Frame) { return false; });
  eng.submit(make_report(5, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  eng.submit(make_report(5, 1, CheckType::kPosition, Vantage::kProxy, 4, 10.0));
  eng.advance_to_frame(10);
  EXPECT_DOUBLE_EQ(eng.score(0), 0.0);
  EXPECT_DOUBLE_EQ(eng.score(1), 0.0);
  EXPECT_EQ(eng.forged_vantage_reports(), 2u);
  // One false-accusation unit per framed subject, capped at kMaxUnits.
  EXPECT_DOUBLE_EQ(eng.score(5),
                   std::min(kMaxUnits, 2.0) * penalty::kFalseAccusation);
}

TEST(MisbehaviorEngine, ProofCarryingReasonsExemptFromVantageCheck) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.set_proxy_vantage_check(
      [](PlayerId, PlayerId, Frame) { return false; });
  // Any receiver holds a failed signature; a kProxy claim on it is neither
  // validated nor penalized.
  eng.submit(make_report(1, 0, CheckType::kSignature, Vantage::kProxy, 3, 10.0));
  eng.advance_to_frame(10);
  EXPECT_EQ(eng.standing(0), Standing::kBanned);
  EXPECT_EQ(eng.forged_vantage_reports(), 0u);
  EXPECT_DOUBLE_EQ(eng.score(1), 0.0);
}

TEST(MisbehaviorEngine, EpochOutcomeIsOrderIndependent) {
  std::vector<CheatReport> batch;
  batch.push_back(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 9.0));
  batch.push_back(make_report(2, 0, CheckType::kPosition,
                              Vantage::kInterestWitness, 3, 8.0));
  batch.push_back(make_report(3, 0, CheckType::kGuidance, Vantage::kProxy, 5, 7.0));
  batch.push_back(make_report(0, 2, CheckType::kKill, Vantage::kProxy, 6, 10.0));
  batch.push_back(make_report(3, 2, CheckType::kKill, Vantage::kVisionWitness,
                              6, 6.0));
  batch.push_back(make_report(1, 3, CheckType::kSignature, Vantage::kOther, 7, 10.0));

  const auto run = [&](bool reversed) {
    MisbehaviorEngine eng(4, kEpoch);
    std::vector<CheatReport> b = batch;
    if (reversed) std::reverse(b.begin(), b.end());
    for (const CheatReport& r : b) eng.submit(r, 0.9);
    eng.advance_to_frame(10);
    std::vector<double> scores;
    for (PlayerId p = 0; p < 4; ++p) scores.push_back(eng.score(p));
    return scores;
  };

  const auto fwd = run(false);
  const auto rev = run(true);
  for (PlayerId p = 0; p < 4; ++p) EXPECT_DOUBLE_EQ(fwd[p], rev[p]);
}

TEST(MisbehaviorEngine, CrashRejoinRefundsOnlySilencePenalties) {
  MisbehaviorEngine eng(4, kEpoch);
  // Epoch 0: a genuine position conviction — deliberate cheating.
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  eng.advance_to_frame(10);
  const double pre_crash = eng.score(0);
  ASSERT_GT(pre_crash, 0.0);

  // Crash: the gap produces escape/rate silence evidence that convicts while
  // the player is away (frozen: no decay either).
  eng.on_disconnect(0, 12);
  for (Frame f = 12; f < 20; ++f) {
    eng.submit(make_report(1, 0, CheckType::kEscape, Vantage::kProxy, f, 10.0));
    eng.submit(make_report(1, 0, CheckType::kRate, Vantage::kProxy, f, 8.0));
  }
  eng.advance_to_frame(20);
  ASSERT_GT(eng.score(0), pre_crash);
  // More silence evidence still queued when the rejoin completes.
  eng.submit(make_report(1, 0, CheckType::kEscape, Vantage::kProxy, 21, 10.0));

  eng.on_rejoin(0, 22);
  // The refund is exact: the wash attempt leaves standing where the cheating
  // left it, not better.
  EXPECT_DOUBLE_EQ(eng.score(0), pre_crash);
  EXPECT_GT(eng.stats(PenaltyReason::kEscapeSilence).refunded_score, 0.0);
  eng.advance_to_frame(30);
  EXPECT_DOUBLE_EQ(eng.score(0), pre_crash) << "queued gap evidence dropped";
  // Post-rejoin deliberate cheating scores normally again.
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 33, 10.0));
  eng.advance_to_frame(40);
  EXPECT_GT(eng.score(0), pre_crash);
}

TEST(MisbehaviorEngine, FrozenPlayersSkipDecay) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  eng.advance_to_frame(10);
  const double s = eng.score(0);
  eng.on_disconnect(0, 11);
  eng.advance_to_frame(10 * 30);  // long gap: an attached player would decay
  EXPECT_DOUBLE_EQ(eng.score(0), s) << "scores do not launder while away";
}

TEST(MisbehaviorEngine, CredibilityCollapsesWithStanding) {
  MisbehaviorEngine eng(4, kEpoch);
  EXPECT_DOUBLE_EQ(eng.credibility(0), 1.0);
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  eng.advance_to_frame(10);
  // score 20 against threshold 100: credibility snapshot 0.8 for next epoch.
  EXPECT_DOUBLE_EQ(eng.credibility(0),
                   1.0 - penalty::kPosition / kDiscouragementThreshold);
  // A second conviction: score 40 against 100 -> 0.6.
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 13, 10.0));
  eng.advance_to_frame(20);
  EXPECT_DOUBLE_EQ(eng.credibility(0),
                   1.0 - 2 * penalty::kPosition / kDiscouragementThreshold);
}

TEST(MisbehaviorEngine, StatsCountReportsAndConvictions) {
  MisbehaviorEngine eng(4, kEpoch);
  eng.submit(make_report(1, 0, CheckType::kPosition, Vantage::kProxy, 3, 10.0));
  eng.submit(make_report(2, 0, CheckType::kPosition,
                         Vantage::kInterestWitness, 3, 9.0));
  eng.advance_to_frame(10);
  const ReasonStats& rs = eng.stats(PenaltyReason::kPositionViolation);
  EXPECT_EQ(rs.reports, 2u);
  EXPECT_EQ(rs.convictions, 1u);  // one (subject, reason) group
  EXPECT_GT(rs.applied_score, 0.0);
}

TEST(MisbehaviorEngine, ReasonOfCoversEveryCheckType) {
  EXPECT_EQ(reason_of(CheckType::kPosition), PenaltyReason::kPositionViolation);
  EXPECT_EQ(reason_of(CheckType::kGuidance),
            PenaltyReason::kGuidanceDivergence);
  EXPECT_EQ(reason_of(CheckType::kKill), PenaltyReason::kBogusKillClaim);
  EXPECT_EQ(reason_of(CheckType::kSubscriptionIS),
            PenaltyReason::kUnjustifiedSubscription);
  EXPECT_EQ(reason_of(CheckType::kSubscriptionVS),
            PenaltyReason::kUnjustifiedSubscription);
  EXPECT_EQ(reason_of(CheckType::kRate), PenaltyReason::kRateViolation);
  EXPECT_EQ(reason_of(CheckType::kEscape), PenaltyReason::kEscapeSilence);
  EXPECT_EQ(reason_of(CheckType::kAimbot), PenaltyReason::kAimAnomaly);
  EXPECT_EQ(reason_of(CheckType::kSignature), PenaltyReason::kWireViolation);
  EXPECT_EQ(reason_of(CheckType::kConsistency),
            PenaltyReason::kProtocolViolation);
  // kFalseAccusation is engine-issued, never mapped from a check.
  for (int i = 0; i < verify::kNumCheckTypes; ++i) {
    EXPECT_NE(reason_of(static_cast<CheckType>(i)),
              PenaltyReason::kFalseAccusation);
  }
}

TEST(MisbehaviorEngine, EveryReasonHasAStringAndAWeight) {
  for (int i = 0; i < kNumPenaltyReasons; ++i) {
    const auto r = static_cast<PenaltyReason>(i);
    EXPECT_STRNE(to_string(r), "unknown");
    EXPECT_GT(penalty_weight(r), 0.0);
  }
  EXPECT_STREQ(to_string(Standing::kGood), "good");
  EXPECT_STREQ(to_string(Standing::kDiscouraged), "discouraged");
  EXPECT_STREQ(to_string(Standing::kBanned), "banned");
}

}  // namespace
}  // namespace watchmen::reputation
