// wmtop: a top(1)-style live dashboard over the observability registry
// (ISSUE 5 tentpole, piece 4; DESIGN.md §5e).
//
// Runs a deterministic 24-player match with a cheat roster and a mid-match
// chaos window (bursty loss + a proxy crash/rejoin), with an obs::Registry
// and obs::Tracer attached to the session. Once per simulated second it
// pulls a registry snapshot and prints one dashboard line: staleness p99,
// per-class bandwidth, reliability work, detector verdicts. This is the
// operator's view of a match — the same counters a real deployment would
// scrape — so the fault window and the detector catching the cheaters are
// visible as they happen.
//
// Usage: wmtop [seconds] [--snapshot FILE.json] [--trace FILE.trace.json]
//   --snapshot  write the final registry snapshot (registry schema JSON)
//   --trace     write the frame tracer's ring as Chrome trace_event JSON
//               (load in about:tracing or https://ui.perfetto.dev)
//
// Most envelopes travel inside kBatch containers, so the "batch" column
// carries most of the traffic and the per-class columns show the messages
// that left alone. Bandwidth columns are read back from the registry's
// net.bytes_sent{type=...} counters and net.batch_size_mean gauge — the
// same names a real scrape would use — not from the network object
// directly, so the dashboard exercises the exported schema end to end.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "net/fault.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

using namespace watchmen;

namespace {

constexpr std::size_t kPlayers = 24;
constexpr std::size_t kFramesPerSecond = 1000 / kFrameMs;  // 20

bool write_file(const std::string& path, const std::string& doc) {
  std::ofstream out(path);
  if (out) out << doc;
  if (!out) {
    std::fprintf(stderr, "wmtop: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

double kbps(std::uint64_t bits_delta) {
  return static_cast<double>(bits_delta) / 1000.0;  // bits over one second
}

/// Cumulative per-class byte counter as exported by the session's
/// collect_metrics (0 until the class first appears on the wire).
std::uint64_t bytes_of(obs::Registry& reg, const char* type) {
  return reg.counter(std::string("net.bytes_sent{type=") + type + "}").value();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seconds = 30;
  std::string snapshot_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (argv[i][0] != '-') {
      seconds = static_cast<std::size_t>(std::atoi(argv[i]));
      if (seconds == 0) seconds = 30;
    } else {
      std::fprintf(stderr,
                   "usage: wmtop [seconds] [--snapshot FILE.json] "
                   "[--trace FILE.trace.json]\n");
      return 2;
    }
  }
  const std::size_t n_frames = seconds * kFramesPerSecond;

  const game::GameMap map = game::make_longest_yard();
  game::SessionConfig game_cfg;
  game_cfg.n_players = kPlayers;
  game_cfg.n_frames = n_frames;
  game_cfg.seed = 7;
  const game::GameTrace trace = game::record_session(map, game_cfg);

  // Two cheaters for the detector columns to light up on.
  const std::vector<obs::CheatSpec> roster = {
      {obs::RosterCheat::kSpeedHack, 0, {1, 0.08, 6.0}},
      {obs::RosterCheat::kSuppressCorrect, 1, {40, 15}},
  };
  std::vector<std::unique_ptr<core::Misbehavior>> owned;
  const auto cheaters = obs::make_misbehaviors(roster, kPlayers, owned);

  core::SessionOptions opts;
  opts.net = core::NetProfile::kFixed;
  opts.fixed_latency_ms = 25.0;
  opts.loss_rate = 0.01;
  if (n_frames > 300) {
    // Mid-match chaos: a bursty-loss window over seconds 10-15 and a crash
    // + rejoin of player 5 inside it, so the dashboard shows degradation
    // and recovery.
    net::FaultPlan plan;
    plan.bursts.push_back({time_of(Frame{200}), time_of(Frame{300}),
                           {0.15, 0.4, 0.02, 0.9}});
    plan.crashes.push_back({Frame{220}, PlayerId{5}, Frame{320}});
    opts.faults = plan;
  }

  obs::Registry registry;
  obs::Tracer tracer;
  opts.registry = &registry;
  opts.tracer = &tracer;

  core::WatchmenSession session(trace, map, opts, cheaters);

  std::printf("wmtop — %zu players, %zus match, chaos window 10s-15s\n",
              kPlayers, seconds);
  // Per-second deltas come from registry snapshot differences: cumulative
  // net.bytes_sent{type=...} counters sampled after each collect().
  std::uint64_t prev_total = 0, prev_state = 0, prev_guid = 0, prev_batch = 0;
  std::uint64_t prev_drops = 0, prev_reports = 0;
  for (std::size_t sec = 0; sec < seconds; ++sec) {
    if (sec % 10 == 0) {
      std::printf("%4s %8s %8s %8s %8s %8s %7s %6s %6s %8s %8s\n", "sec",
                  "p99(fr)", "state", "guid", "batch", "ctrl", "B/p/s",
                  "avgB", "drops", "reports", "flagged");
    }
    session.run_frames(kFramesPerSecond);
    registry.collect();

    const std::uint64_t total =
        registry.counter("net.bits_sent").value() / 8;
    const std::uint64_t state = bytes_of(registry, "state-update");
    const std::uint64_t guid = bytes_of(registry, "guidance");
    const std::uint64_t batch = bytes_of(registry, "batch");
    const std::uint64_t drops = registry.counter("net.dropped").value();
    const std::uint64_t reports =
        registry.counter("detector.reports").value();
    const double batch_mean = registry.gauge("net.batch_size_mean").value();

    const std::uint64_t ctrl =
        (total - prev_total) - (state - prev_state) - (guid - prev_guid) -
        (batch - prev_batch);
    std::printf("%4zu %8.2f %7.0fk %7.0fk %7.0fk %7.0fk %7.0f %6.2f %6llu "
                "%8llu %8llu\n",
                sec + 1, registry.gauge("session.staleness_p99").value(),
                kbps(8 * (state - prev_state)), kbps(8 * (guid - prev_guid)),
                kbps(8 * (batch - prev_batch)), kbps(8 * ctrl),
                static_cast<double>(total - prev_total) / kPlayers,
                batch_mean > 0 ? batch_mean : 1.0,
                static_cast<unsigned long long>(drops - prev_drops),
                static_cast<unsigned long long>(reports - prev_reports),
                static_cast<unsigned long long>(
                    registry.counter("detector.flagged_players").value()));
    prev_total = total;
    prev_state = state;
    prev_guid = guid;
    prev_batch = batch;
    prev_drops = drops;
    prev_reports = reports;
  }

  std::printf("\nmatch over: %llu trace events in ring (%llu emitted), "
              "%zu metrics registered\n",
              static_cast<unsigned long long>(tracer.total_events() -
                                              tracer.dropped_events()),
              static_cast<unsigned long long>(tracer.total_events()),
              registry.num_metrics());

  if (!snapshot_path.empty() &&
      !write_file(snapshot_path, registry.snapshot_json())) {
    return 2;
  }
  if (!trace_path.empty() &&
      !write_file(trace_path, tracer.chrome_trace_json())) {
    return 2;
  }
  if (!snapshot_path.empty()) {
    std::printf("registry snapshot -> %s\n", snapshot_path.c_str());
  }
  if (!trace_path.empty()) {
    std::printf("chrome trace -> %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  return 0;
}
