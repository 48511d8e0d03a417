#pragma once
// Detection aggregation (paper §V): individual sanity checks produce rated
// reports; a detector aggregates them into per-suspect evidence. A single
// report never bans anyone (false positives exist, e.g. from message loss);
// the aggregate feeds the reputation system.
//
// The aggregation is loss-aware: during declared fault windows (network
// chaos the operator knows about — bursts, partitions, crash recovery) a
// report's weight is discounted, so degraded-but-honest traffic does not
// accumulate into a ban. Completed crash-rejoin cycles can be absolved:
// the silence-driven evidence (escape/rate) is churn, not cheating.

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "verify/report.hpp"

namespace watchmen::verify {

/// Weighted rating (rating x confidence) at or above which a report counts
/// as a high-confidence detection. With proxy confidence 1.0 this means a
/// rating >= 6; a distant "other" witness (c=0.2) can never trigger one
/// alone.
inline constexpr double kHighConfidenceThreshold = 6.0;

/// Multiplier applied to a report's weight when its frame falls inside a
/// declared fault window. 0.4 keeps a max-rating proxy report (10.0) under
/// the high-confidence threshold while still logging it.
inline constexpr double kFaultWindowDiscount = 0.4;

struct SuspectSummary {
  std::uint64_t reports = 0;
  std::uint64_t suspicious_reports = 0;      ///< rating > 1
  std::uint64_t high_confidence_reports = 0; ///< weighted >= threshold
  double max_weighted = 0.0;
  double total_weighted = 0.0;
};

class Detector {
 public:
  /// Downstream punishment hook: every verdict is forwarded with the
  /// loss-aware discount the detector would weight it by (the fault-window
  /// multiplier, 1.0 outside declared windows), so a reputation engine
  /// inherits the same chaos tolerance. The detector stays ignorant of what
  /// the sink does — reputation depends on verify, never the reverse.
  using PenaltySink = std::function<void(const CheatReport&, double discount)>;
  void set_penalty_sink(PenaltySink sink) { sink_ = std::move(sink); }

  void report(const CheatReport& r);

  /// Declares [begin, end] (frames, inclusive) as a known network-fault
  /// window; reports stamped inside it are discounted. Register windows
  /// before the reports flow — discounting happens at report() time.
  void add_fault_window(Frame begin, Frame end);
  bool in_fault_window(Frame f) const;

  /// Drops accumulated reports of the given types against `suspect`
  /// stamped before `before`, rebuilding its summary — the churn refund: a
  /// player that completed a crash-rejoin cycle was absent, not cheating.
  void absolve(PlayerId suspect, std::initializer_list<CheckType> types,
               Frame before);

  const SuspectSummary& summary(PlayerId suspect) const;

  /// True once at least one high-confidence report exists for the suspect.
  bool flagged(PlayerId suspect) const {
    return summary(suspect).high_confidence_reports > 0;
  }

  const std::vector<CheatReport>& reports() const { return log_; }
  std::size_t total_reports() const { return log_.size(); }

  /// Report counts by check type (indexed by the CheckType enum value);
  /// kept in sync through absolve() rebuilds. Feeds the obs registry.
  const std::array<std::uint64_t, kNumCheckTypes>& reports_by_type() const {
    return reports_by_type_;
  }

 private:
  double effective_weight(const CheatReport& r) const;
  void accumulate(SuspectSummary& s, const CheatReport& r) const;

  PenaltySink sink_;
  std::vector<std::pair<Frame, Frame>> fault_windows_;
  std::unordered_map<PlayerId, SuspectSummary> by_suspect_;
  std::vector<CheatReport> log_;
  std::array<std::uint64_t, kNumCheckTypes> reports_by_type_{};
};

}  // namespace watchmen::verify
