// Table I reproduction: the cheat taxonomy and how Watchmen counters each
// entry. Every implementable cheat is injected into a live session and we
// report whether (and by whom) it was detected; architectural preventions
// are demonstrated or explained.

#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "bench_common.hpp"
#include "cheat/cheats.hpp"
#include "core/session.hpp"
#include "crypto/keys.hpp"

using namespace watchmen;

namespace {

struct RowResult {
  std::size_t injected = 0;
  std::size_t reports = 0;      // high-confidence reports vs the cheater
  std::set<std::string> by;     // vantages that reported
  bool flagged = false;
};

RowResult run_with(const game::GameTrace& trace, const game::GameMap& map,
                   core::Misbehavior* mb, cheat::LoggedCheat* logged,
                   PlayerId cheater = 0) {
  core::SessionOptions opts;
  opts.net = core::NetProfile::kKing;
  opts.loss_rate = 0.01;
  std::unordered_map<PlayerId, core::Misbehavior*> mbs{{cheater, mb}};
  core::WatchmenSession session(trace, map, opts, mbs);
  session.run();

  RowResult r;
  if (logged) r.injected = logged->cheat_frames().size();
  for (const auto& rep : session.detector().reports()) {
    if (rep.suspect == cheater &&
        rep.weighted() >= verify::kHighConfidenceThreshold) {
      ++r.reports;
      r.by.insert(rep.verifier == session.peer(cheater).schedule().proxy_at(
                                            cheater, rep.frame)
                      ? "proxy"
                      : "others");
    }
  }
  r.flagged = session.detector().flagged(cheater);
  return r;
}

void print_row(const char* name, const RowResult& r, const char* expected) {
  std::string by;
  for (const auto& s : r.by) {
    if (!by.empty()) by += "+";
    by += s;
  }
  std::printf("%-22s %9zu %9zu %-14s %-10s (paper: %s)\n", name, r.injected,
              r.reports, by.empty() ? "-" : by.c_str(),
              r.flagged ? "DETECTED" : "missed", expected);
}

void print_prevented(const char* name, const char* how, const char* expected) {
  std::printf("%-22s %9s %9s %-14s %-10s (paper: %s)\n", name, "-", "-", how,
              "PREVENTED", expected);
}

}  // namespace

int main() {
  bench::print_header("Table I", "Cheating mechanisms and Watchmen's response");
  const game::GameMap map = game::make_longest_yard();
  const game::GameTrace trace = bench::standard_trace(32, 800, 42);
  const crypto::KeyRegistry keys(42, trace.n_players);  // same as the session's
  const interest::InterestConfig icfg;

  std::printf("%-22s %9s %9s %-14s %-10s\n", "cheat", "injected", "hc-reports",
              "detected-by", "verdict");

  {
    cheat::EscapeCheat ch(400);
    print_row("escaping", run_with(trace, map, &ch, &ch),
              "detected by proxy and others");
  }
  {
    cheat::TimeCheat ch(10, 100, 700);
    print_row("time cheat (look-ahead)", run_with(trace, map, &ch, &ch),
              "detected by proxy and others");
  }
  print_prevented("network flooding", "no server", "prevented through distribution");
  {
    cheat::FastRateCheat ch(3, 100, 700);
    print_row("fast rate", run_with(trace, map, &ch, &ch),
              "detected by proxy and others");
  }
  {
    cheat::SuppressCorrectCheat ch(40, 20);
    print_row("suppress-correct", run_with(trace, map, &ch, &ch),
              "detected by proxy and others");
  }
  {
    cheat::ReplayCheat ch(7, 0.05);
    print_row("replay", run_with(trace, map, &ch, &ch),
              "prevented/detected by proxy and others");
  }
  {
    cheat::MaliciousProxyCheat ch(/*tamper=*/false, 1.0, 7);
    print_row("blind opponent", run_with(trace, map, &ch, &ch),
              "detected by proxy and others");
  }
  {
    cheat::SpeedHackCheat ch(7, 0.10, 6.0);
    print_row("client-side tampering", run_with(trace, map, &ch, &ch),
              "detected by sanity checks");
  }
  {
    cheat::AimbotCheat ch(0, trace, map);
    print_row("aimbots", run_with(trace, map, &ch, &ch),
              "detection by proxy (statistical analysis)");
  }
  {
    cheat::SpoofCheat ch(7, 0.05, 0, 5, keys);
    print_row("spoofing", run_with(trace, map, &ch, &ch),
              "detected by players");
  }
  {
    cheat::ConsistencyCheat ch(7, 0.05, 0, trace.n_players, keys);
    print_row("consistency cheat", run_with(trace, map, &ch, &ch),
              "prevented by proxy and others");
  }
  print_prevented("sniffing", "min. exposure", "prevented by minimizing exposure");
  {
    cheat::BogusSubscriptionCheat ch(7, 0.05, 0, trace, map,
                                     interest::SetKind::kInterest, icfg);
    print_row("maphack (IS harvest)", run_with(trace, map, &ch, &ch),
              "prevented by minimizing exposure");
  }
  print_prevented("rate analysis", "proxy+subs", "prevented by proxy & subscriptions");
  {
    cheat::MaliciousProxyCheat ch(/*tamper=*/true, 1.0, 7);
    print_row("proxy tampering", run_with(trace, map, &ch, &ch),
              "prevented by signatures");
  }
  return 0;
}
