#include "verify/detector.hpp"

#include <algorithm>

namespace watchmen::verify {

double Detector::effective_weight(const CheatReport& r) const {
  double w = r.weighted();
  if (in_fault_window(r.frame)) w *= kFaultWindowDiscount;
  return w;
}

void Detector::accumulate(SuspectSummary& s, const CheatReport& r) const {
  ++s.reports;
  if (r.rating > 1.0) ++s.suspicious_reports;
  const double w = effective_weight(r);
  if (w >= kHighConfidenceThreshold) ++s.high_confidence_reports;
  if (w > s.max_weighted) s.max_weighted = w;
  s.total_weighted += w;
}

void Detector::report(const CheatReport& r) {
  log_.push_back(r);
  accumulate(by_suspect_[r.suspect], r);
  ++reports_by_type_[static_cast<std::size_t>(r.type)];
  if (sink_) {
    sink_(r, in_fault_window(r.frame) ? kFaultWindowDiscount : 1.0);
  }
}

void Detector::add_fault_window(Frame begin, Frame end) {
  fault_windows_.emplace_back(begin, end);
}

bool Detector::in_fault_window(Frame f) const {
  for (const auto& [b, e] : fault_windows_) {
    if (f >= b && f <= e) return true;
  }
  return false;
}

void Detector::absolve(PlayerId suspect, std::initializer_list<CheckType> types,
                       Frame before) {
  const auto matches = [&](const CheatReport& r) {
    return r.suspect == suspect && r.frame < before &&
           std::find(types.begin(), types.end(), r.type) != types.end();
  };
  std::erase_if(log_, matches);
  SuspectSummary rebuilt{};
  reports_by_type_ = {};
  for (const CheatReport& r : log_) {
    if (r.suspect == suspect) accumulate(rebuilt, r);
    ++reports_by_type_[static_cast<std::size_t>(r.type)];
  }
  by_suspect_[suspect] = rebuilt;
}

const SuspectSummary& Detector::summary(PlayerId suspect) const {
  static const SuspectSummary kEmpty{};
  const auto it = by_suspect_.find(suspect);
  return it == by_suspect_.end() ? kEmpty : it->second;
}

}  // namespace watchmen::verify
