// frame_bench: the measuring process of the whole-frame benchmark
// (perfbench/run.py builds and launches it).
//
// Drives core::WatchmenSession through its public API on one workload and
// prints the result as one JSON line. Program state is read only through
//   * the Transport seam: a decorator around net::make_transport(...),
//     injected through SessionOptions::transport_factory, that counts (and in
//     traced passes times) every send, delivery and run_until call;
//   * obs::Registry names exported by the session's pull collector;
//   * the public session API (current_frame, keys).
// Layer timings are taken from outside the layer, around its public calls.
//
// Usage: frame_bench --workload W --seed N --seconds S --trace 0|1
//
// Inputs: each workload plays a fixed number of inputs derived from the
// seed (a game trace and a session seed each); simulated metrics pool them,
// so a single network draw does not decide a p99.
//
// Passes: a pass constructs a fresh session over one input and runs every
// frame of it. With --trace 0 all passes are untraced and the end-to-end
// metrics are reported; between passes, child processes (this binary with
// --cold-setup K) each record input K and time the first session
// construction of a fresh process, the cold set-up cost. With --trace 1 the per-layer metrics come from
// traced passes (the probe's per-call clocks on, obs::Tracer attached), and
// input 0 is re-run untraced and at the other thread count: all three must
// give bit-identical simulated results (the measuring code must not change
// what it measures). Passes repeat while the time budget has room.
//
// Exit codes: 0 all checks passed, 1 a correctness check failed, 2 usage
// (or a --cold-setup child that could not run).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <ctime>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/messages.hpp"
#include "core/session.hpp"
#include "crypto/sig.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "interest/sets.hpp"
#include "interest/visibility_cache.hpp"
#include "net/latency.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace watchmen;
using SteadyClock = std::chrono::steady_clock;

// ------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  std::size_t players;
  std::size_t frames;          ///< frames in one pass
  std::size_t threads;         ///< SessionOptions::compute_threads
  bool shipped_wire;           ///< batching, anchored deltas, compact headers...
  std::size_t snapshot_every;  ///< frames between Registry::snapshot_json
  int cold_setups;             ///< cold set-up children after each pass
  std::size_t inputs;          ///< seeds derived from --seed, pooled
};

// Why these two (see BENCHMARK.json): paper48 is the paper's setting, where
// crypto-heavy delivery dominates and batching and the reliable control
// plane are bypassed. scale256_wire runs the shipped wire at 256 players,
// where interest and the batch/delta codecs carry the most weight. Both
// share the q3dm17-like map, King latency and 1 % loss. Pass lengths and
// input counts keep one run near 55 s. A snapshot costs O(history), so
// snapshots are spread evenly and often enough (every 2.5 s and 1 s of game
// time) that their median is steadily the cost at mid-pass.
//
// A hardened-configuration workload under a group partition is held back:
// the partition leaves honest players discouraged or banned, so its
// correctness gate fails (perfbench/STEADINESS.md).
constexpr Workload kWorkloads[] = {
    {"paper48", 48, 600, 1, false, 50, 2, 4},
    {"scale256_wire", 256, 200, 2, true, 20, 4, 2},
};

/// The shipped wire. The flags slated for deletion by the flag-matrix
/// refactor are set only while they exist, so the workload keeps its meaning
/// (and compiles unchanged) once they are unconditional.
template <class Cfg>
void ship_wire(Cfg& c) {
  if constexpr (requires { c.batching; }) c.batching = true;
  if constexpr (requires { c.compact_headers; }) c.compact_headers = true;
  if constexpr (requires { c.quantized_guidance; }) c.quantized_guidance = true;
  if constexpr (requires { c.subscriber_diffs; }) c.subscriber_diffs = true;
  if constexpr (requires { c.ack_anchored; }) c.ack_anchored = true;
  if constexpr (requires { c.delta_updates; }) c.delta_updates = true;
  c.other_update_budget = 64;
}

// --------------------------------------------------------- probe decorator

/// What the decorator sees. Counts are simulated work (identical whatever
/// the clocks do); the *_ns fields are wall time, only taken when `clocks`.
struct ProbeStats {
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t deliveries = 0;  ///< datagrams handed to a handler
  std::uint64_t messages = 0;    ///< logical messages (batch contents)
  std::uint64_t batches = 0;
  std::uint64_t batched_messages = 0;
  std::int64_t send_ns = 0;
  std::int64_t handler_ns = 0;
  std::int64_t run_until_ns = 0;
  /// Sealed sub-wires kept for the open/sign/verify timings (traced only).
  std::vector<std::vector<std::uint8_t>> captured;
};

constexpr std::size_t kCaptureWires = 2048;
constexpr std::uint64_t kCaptureStride = 61;

std::int64_t ns_since(SteadyClock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - t0)
      .count();
}

class ProbeTransport final : public net::Transport {
 public:
  ProbeTransport(std::unique_ptr<net::Transport> inner, ProbeStats& stats,
                 bool clocks)
      : inner_(std::move(inner)), stats_(&stats), clocks_(clocks) {}
  // The wrapped handlers hold `this`.
  ProbeTransport(const ProbeTransport&) = delete;
  ProbeTransport& operator=(const ProbeTransport&) = delete;

  using net::Transport::clock;
  using net::Transport::send;
  net::SimClock& clock() override { return inner_->clock(); }
  std::size_t size() const override { return inner_->size(); }

  void set_handler(PlayerId node, Handler handler) override {
    if (!handler) {  // a disconnect: traffic to the node vanishes
      inner_->set_handler(node, nullptr);
      return;
    }
    inner_->set_handler(
        node, [this, h = std::move(handler)](const net::Envelope& env) {
          observe(env);
          if (!clocks_) {
            h(env);
            return;
          }
          const auto t0 = SteadyClock::now();
          h(env);
          stats_->handler_ns += ns_since(t0);
        });
  }

  void set_upload_bps(PlayerId node, double bps) override {
    inner_->set_upload_bps(node, bps);
  }
  void set_fault_plan(net::FaultPlan plan) override {
    inner_->set_fault_plan(std::move(plan));
  }
  net::FaultPlan fault_plan() const override { return inner_->fault_plan(); }

  void send(PlayerId from, PlayerId to,
            std::shared_ptr<const std::vector<std::uint8_t>> payload,
            std::size_t payload_bits, TimeMs sent_at) override {
    ++stats_->sends;
    stats_->send_bytes += payload ? payload->size() : 0;
    if (!clocks_) {
      inner_->send(from, to, std::move(payload), payload_bits, sent_at);
      return;
    }
    const auto t0 = SteadyClock::now();
    inner_->send(from, to, std::move(payload), payload_bits, sent_at);
    stats_->send_ns += ns_since(t0);
  }

  void run_until(TimeMs t) override {
    if (!clocks_) {
      inner_->run_until(t);
      return;
    }
    const auto t0 = SteadyClock::now();
    inner_->run_until(t);
    stats_->run_until_ns += ns_since(t0);
  }

  net::NetStats stats() const override { return inner_->stats(); }
  std::uint64_t bits_sent_by(PlayerId node) const override {
    return inner_->bits_sent_by(node);
  }
  void reset_bit_counters() override { inner_->reset_bit_counters(); }
  void set_mtu(std::size_t bytes) override { inner_->set_mtu(bytes); }
  void set_oversize_handler(OversizeHandler handler) override {
    inner_->set_oversize_handler(std::move(handler));
  }

 private:
  void observe(const net::Envelope& env) {
    ProbeStats& s = *stats_;
    ++s.deliveries;
    const auto wire = env.bytes();
    if (!core::is_batch_wire(wire)) {
      observe_message(wire);
      return;
    }
    const core::BatchPrefix bp = core::decode_batch_prefix(wire);
    ++s.batches;
    s.batched_messages += bp.wires.size();
    for (const auto sub : bp.wires) observe_message(sub);
  }

  void observe_message(std::span<const std::uint8_t> wire) {
    ++stats_->messages;
    capture(wire);
  }

  void capture(std::span<const std::uint8_t> wire) {
    if (!clocks_ || stats_->captured.size() >= kCaptureWires) return;
    if (stats_->messages % kCaptureStride != 0) return;
    stats_->captured.emplace_back(wire.begin(), wire.end());
  }

  std::unique_ptr<net::Transport> inner_;
  ProbeStats* stats_;
  const bool clocks_;
};

// ------------------------------------------------------------------ timing

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double ms_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_us_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ------------------------------------------------------------------- passes

enum class PassKind { kUntraced, kTraced, kOtherThreads };

/// One input of the workload: a seed and the game trace recorded from it.
struct Input {
  std::uint64_t seed = 0;
  game::GameTrace trace;
  double record_s = 0;  ///< game::record_session wall time
};

/// Input k of a workload run with `seed`. Input 0 plays the seed itself; the
/// rest derive from it.
Input make_input(const Workload& w, const game::GameMap& map,
                 std::uint64_t seed, std::size_t k) {
  Input in;
  in.seed = seed ^ (k * 0x9e3779b97f4a7c15ULL);
  game::SessionConfig gc;
  gc.n_players = w.players;
  gc.n_humans = w.players;
  gc.n_frames = w.frames;
  gc.seed = in.seed;
  const auto t0 = SteadyClock::now();
  in.trace = game::record_session(map, gc);
  in.record_s = ms_between(t0, SteadyClock::now()) / 1e3;
  return in;
}

/// Simulated results of one pass: functions of the input alone.
struct SimResult {
  std::uint64_t digest = 0;
  bool all_frames = false;
  std::uint64_t bits_sent = 0;
  double delivery_p99_ms = 0;  ///< net.delivery_age_ms_p99
  double handoff_p99_ms = 0;   ///< peer.handoff_latency_ms_p99
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t reports = 0;
  std::uint64_t flagged = 0;
  std::uint64_t discouraged = 0;
  std::uint64_t banned = 0;
  std::uint64_t snapshot_bytes = 0;
};

struct PassOut {
  PassKind kind = PassKind::kUntraced;
  std::size_t input = 0;
  SimResult sim;
  ProbeStats probe;
  std::vector<double> frame_ms;        ///< non-renewal frames
  std::vector<double> round_frame_ms;  ///< proxy-renewal frames
  std::vector<double> snapshot_ms;
  double cpu_us = 0;   ///< process CPU over the frame loop
  double wall_ms = 0;  ///< sum of frame wall times
  // Envelope and crypto costs over the captured wires (traced passes).
  double open_ns = 0, sign_ns = 0, verify_ns = 0;
  std::size_t rejected_wires = 0;
};

class Bench {
 public:
  /// Records inputs [first, last) of the workload run with `seed`.
  Bench(const Workload& w, std::uint64_t seed, std::size_t first,
        std::size_t last)
      : w_(w), map_(game::make_longest_yard()) {
    for (std::size_t k = first; k < last; ++k) {
      inputs_.push_back(make_input(w, map_, seed, k));
    }
  }

  const std::vector<Input>& inputs() const { return inputs_; }

  /// Times one session construction (keys, schedule, transport, peers) over
  /// the first recorded input. It is cold only as the first construction of
  /// the process, which is how the --cold-setup child calls it.
  double time_setup() const {
    ProbeStats stats;
    core::SessionOptions o = options(inputs_[0].seed, w_.threads);
    o.transport_factory = probe_factory(o, stats, false);
    const auto t0 = SteadyClock::now();
    const core::WatchmenSession s(inputs_[0].trace, map_, std::move(o));
    return ms_between(t0, SteadyClock::now()) / 1e3;
  }

  PassOut run_pass(std::size_t input, PassKind kind) const {
    PassOut out;
    out.kind = kind;
    out.input = input;
    const Input& in = inputs_[input];
    const bool traced = kind == PassKind::kTraced;
    std::size_t threads = w_.threads;
    if (kind == PassKind::kOtherThreads) threads = w_.threads == 1 ? 2 : 1;
    if (traced) out.probe.captured.reserve(kCaptureWires);

    obs::Registry registry;
    obs::Tracer tracer;
    core::SessionOptions o = options(in.seed, threads);
    o.registry = &registry;
    if (traced) o.tracer = &tracer;
    const Frame renewal = o.watchmen.renewal_frames;
    o.transport_factory = probe_factory(o, out.probe, traced);

    out.frame_ms.reserve(w_.frames);
    out.round_frame_ms.reserve(w_.frames / static_cast<std::size_t>(renewal) + 1);
    out.snapshot_ms.reserve(w_.frames / w_.snapshot_every + 1);

    core::WatchmenSession session(in.trace, map_, std::move(o));

    std::string snapshot;
    std::uint64_t digest = 1469598103934665603ULL;
    for (std::size_t fi = 0; fi < w_.frames; ++fi) {
      const double c0 = cpu_us_now();
      const auto t0 = SteadyClock::now();
      session.run_frames(1);
      const auto t1 = SteadyClock::now();
      out.cpu_us += cpu_us_now() - c0;
      const double ms = ms_between(t0, t1);
      out.wall_ms += ms;
      // Frame 0 only bootstraps the session; it is neither kind of frame.
      if (fi > 0) {
        (static_cast<Frame>(fi) % renewal == 0 ? out.round_frame_ms
                                               : out.frame_ms)
            .push_back(ms);
      }
      if ((fi + 1) % w_.snapshot_every == 0) {
        const auto a = SteadyClock::now();
        snapshot = registry.snapshot_json();
        out.snapshot_ms.push_back(ms_between(a, SteadyClock::now()));
        digest = fnv1a(snapshot, digest);
      }
    }

    SimResult& r = out.sim;
    const ProbeStats& p = out.probe;
    r.all_frames = session.current_frame() == static_cast<Frame>(w_.frames);
    registry.collect();  // the session's pull collector mirrors end state
    const auto c = [&](const char* name) {
      return registry.counter(name).value();
    };
    const auto g = [&](const char* name) { return registry.gauge(name).value(); };
    r.bits_sent = c("net.bits_sent");
    r.delivery_p99_ms = g("net.delivery_age_ms_p99");
    r.handoff_p99_ms = g("peer.handoff_latency_ms_p99");
    r.undecodable = c("peer.baseline_mismatches");
    // Failures the program caused; injected loss is not one of them.
    const std::uint64_t refused = c("net.oversize") + c("net.shed");
    const std::uint64_t expired = c("peer.reliable_expired");
    r.failures = r.undecodable + c("peer.sig_rejects") +
                 c("peer.batch_rejects") + c("net.rx_rejects") + refused +
                 expired;
    // Attempts: every logical message that reached a handler, plus the sends
    // the transport refused and the reliable messages given up on.
    r.attempts = p.messages + refused + expired;
    r.reports = c("detector.reports");
    r.flagged = c("detector.flagged_players");
    r.discouraged = static_cast<std::uint64_t>(g("rep.discouraged_players"));
    r.banned = static_cast<std::uint64_t>(g("rep.banned_players"));
    r.snapshot_bytes = snapshot.size();
    for (const std::uint64_t v : {p.sends, p.send_bytes, p.deliveries,
                                  p.messages, p.batches, p.batched_messages}) {
      digest = fnv1a(std::to_string(v), digest);
    }
    r.digest = digest;

    if (traced) time_codecs(session.keys(), out);
    out.probe.captured = {};
    return out;
  }

  /// compute_sets_into over an input's trace frames, outside the session
  /// but as the session calls it: the trace replayer's interaction recency,
  /// hysteresis on the previous frame's sets, and a pool of the workload's
  /// compute_threads. Median wall µs of a frame's set computation, per
  /// player.
  double time_interest(std::size_t input) const {
    const interest::InterestConfig cfg =
        options(inputs_[input].seed, w_.threads).watchmen.interest;
    game::TraceReplayer replayer(inputs_[input].trace);
    const interest::InteractionFn last_hit = [&](PlayerId a, PlayerId b) {
      return replayer.last_interaction(a, b);
    };
    const std::size_t n = w_.players;
    std::vector<interest::PlayerSets> prev(n), cur(n);
    interest::VisibilityCache cache;
    interest::EyeTable eyes;
    util::ThreadPool pool(w_.threads);
    std::vector<double> per_frame;
    per_frame.reserve(replayer.num_frames());
    for (std::size_t fi = 0; fi < replayer.num_frames(); ++fi) {
      replayer.seek(fi);
      const auto& av = replayer.current().avatars;
      const auto f = static_cast<Frame>(fi);
      const auto t0 = SteadyClock::now();
      eyes.build(av);
      cache.begin_frame(n);
      pool.parallel_for(n, [&](std::size_t p) {
        interest::compute_sets_into(static_cast<PlayerId>(p), av, map_, f,
                                    last_hit, cfg, &prev[p], &cache, cur[p],
                                    &eyes);
      });
      per_frame.push_back(static_cast<double>(ns_since(t0)) / 1e3 /
                          static_cast<double>(n));
      std::swap(prev, cur);
    }
    return median(per_frame);
  }

 private:
  core::SessionOptions options(std::uint64_t seed, std::size_t threads) const {
    core::SessionOptions o;
    o.seed = seed;
    o.net = core::NetProfile::kKing;
    o.loss_rate = 0.01;
    o.compute_threads = threads;
    if (w_.shipped_wire) ship_wire(o.watchmen);
    return o;
  }

  /// Builds the transport the session itself would build for `o` (King
  /// latency from the session seed), wrapped in the probe decorator.
  static std::function<std::unique_ptr<net::Transport>(std::size_t)>
  probe_factory(const core::SessionOptions& o, ProbeStats& stats,
                bool clocks) {
    return [seed = o.seed, loss = o.loss_rate, &stats, clocks](std::size_t n) {
      net::TransportConfig tc;
      tc.kind = net::TransportKind::kSim;
      tc.n_nodes = n;
      tc.latency = net::make_king_latency(n, seed);
      tc.loss_rate = loss;
      tc.seed = seed;
      return std::unique_ptr<net::Transport>(std::make_unique<ProbeTransport>(
          net::make_transport(std::move(tc)), stats, clocks));
    };
  }

  /// core::open, crypto::sign and crypto::verify over the wires captured
  /// from this pass's deliveries; median over repetitions, ns per wire.
  static void time_codecs(const crypto::KeyRegistry& keys, PassOut& out) {
    const auto& wires = out.probe.captured;
    if (wires.empty()) return;
    const auto per_wire = [&](SteadyClock::time_point t0) {
      return static_cast<double>(ns_since(t0)) /
             static_cast<double>(wires.size());
    };
    const auto key_of = [&](std::size_t i) {
      return static_cast<PlayerId>(i % keys.size());
    };
    std::vector<crypto::Signature> sigs(wires.size());
    std::vector<double> open_ns, sign_ns, verify_ns;
    constexpr int kReps = 5;
    for (int rep = 0; rep < kReps; ++rep) {
      std::size_t rejected = 0;
      auto t0 = SteadyClock::now();
      for (const auto& wire : wires) {
        if (!core::open(wire, keys)) ++rejected;
      }
      open_ns.push_back(per_wire(t0));
      t0 = SteadyClock::now();
      for (std::size_t i = 0; i < wires.size(); ++i) {
        sigs[i] = crypto::sign(keys.key_pair(key_of(i)), wires[i]);
      }
      sign_ns.push_back(per_wire(t0));
      t0 = SteadyClock::now();
      for (std::size_t i = 0; i < wires.size(); ++i) {
        if (!crypto::verify(keys.public_key(key_of(i)), wires[i], sigs[i])) {
          ++rejected;
        }
      }
      verify_ns.push_back(per_wire(t0));
      out.rejected_wires = std::max(out.rejected_wires, rejected);
    }
    out.open_ns = median(open_ns);
    out.sign_ns = median(sign_ns);
    out.verify_ns = median(verify_ns);
  }

  const Workload& w_;
  game::GameMap map_;
  std::vector<Input> inputs_;
};

// --------------------------------------------------------------- reporting

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long long cold_setup = -1;  ///< >= 0: child mode, time input K's set-up
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      continue;
    }
    if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--cold-setup") {
      a.cold_setup = std::strtoll(v, &end, 10);
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

/// Runs `exe --cold-setup k` as a child process and returns the set-up
/// seconds it prints, or NaN when the child fails. Waits for the child.
double cold_setup_s(const std::string& exe, const Args& a, std::size_t k) {
  const std::string cmd = "'" + exe + "' --workload " + a.workload +
                          " --seed " + std::to_string(a.seed) +
                          " --seconds 1 --cold-setup " + std::to_string(k);
  FILE* child = popen(cmd.c_str(), "r");
  if (!child) return std::numeric_limits<double>::quiet_NaN();
  char line[64] = {};
  const bool got = std::fgets(line, sizeof line, child) != nullptr;
  const int status = pclose(child);
  char* end = nullptr;
  const double v = got ? std::strtod(line, &end) : 0.0;
  if (status != 0 || !got || end == line || !(v > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return v;
}

/// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
class Result {
 public:
  void metric(const char* name, double value, const char* unit) {
    metrics_ += metrics_.empty() ? "" : ", ";
    char buf[256];
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name, std::isfinite(value) ? value : 0.0, unit);
    metrics_ += buf;
  }
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: frame_bench --workload W --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) wl = &w;
  }
  if (!wl) {
    std::fprintf(stderr, "frame_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  if (args.cold_setup >= 0) {
    const auto k = static_cast<std::size_t>(args.cold_setup);
    if (k >= w.inputs) return 2;
    const Bench one(w, args.seed, k, k + 1);
    std::printf("%.17g\n", one.time_setup());
    return 0;
  }
  const std::string exe = argv[0];
  if (exe.find('\'') != std::string::npos) {
    std::fprintf(stderr, "frame_bench: unsupported path %s\n", exe.c_str());
    return 2;
  }
  const auto start = SteadyClock::now();
  const auto elapsed_s = [&] {
    return ms_between(start, SteadyClock::now()) / 1e3;
  };
  const bool traced_run = args.trace == 1;

  const Bench bench(w, args.seed, 0, w.inputs);
  const std::size_t n_inputs = bench.inputs().size();

  // One pass over every input gives the simulated results (traced passes
  // when --trace 1). With --trace 1 the self-test then re-runs input 0
  // untraced and at the other thread count. Afterwards passes repeat over
  // the inputs, for timing only, while the budget has room for one more;
  // every repeat must reproduce its input's simulated results exactly.
  // Cold set-ups (child processes, cycling over the inputs) are spread
  // between the passes, like the frames, so slow stretches of machine time
  // weigh on both alike.
  std::vector<PassOut> passes;
  std::vector<double> setup_s;
  double longest_pass_s = 0;
  double rss_mb = 0;
  const PassKind main_kind = traced_run ? PassKind::kTraced : PassKind::kUntraced;
  const int cold_setups = traced_run ? 0 : w.cold_setups;
  const auto run = [&](std::size_t input, PassKind kind) {
    const double p0 = elapsed_s();
    passes.push_back(bench.run_pass(input, kind));
    for (int i = 0; i < cold_setups; ++i) {
      setup_s.push_back(cold_setup_s(exe, args, setup_s.size() % n_inputs));
    }
    longest_pass_s = std::max(longest_pass_s, elapsed_s() - p0);
  };
  for (std::size_t k = 0; k < n_inputs; ++k) run(k, main_kind);
  rss_mb = peak_rss_mb();
  if (traced_run) {
    run(0, PassKind::kUntraced);
    run(0, PassKind::kOtherThreads);
  }
  for (std::size_t i = 0; elapsed_s() + longest_pass_s <= args.seconds; ++i) {
    if (!traced_run) {
      run(i % n_inputs, PassKind::kUntraced);
    } else {
      // Untraced and traced passes of the same inputs, for the overhead.
      run((i / 2 + 1) % n_inputs, i % 2 == 0 ? PassKind::kUntraced : PassKind::kTraced);
    }
  }

  // ---- correctness gate
  std::vector<std::string> errors;
  std::uint64_t frames_run = 0, frames_failed = 0;
  for (const PassOut& p : passes) {
    const SimResult& ref = passes[p.input].sim;
    const bool ok = p.sim.all_frames && p.sim.digest == ref.digest &&
                    p.rejected_wires == 0;
    frames_run += w.frames;
    if (ok) continue;
    frames_failed += w.frames;
    if (!p.sim.all_frames) errors.push_back("a pass did not run every frame");
    if (p.sim.digest != ref.digest) {
      errors.push_back("pass kind " + std::to_string(static_cast<int>(p.kind)) +
                       " changed the simulated results of input " +
                       std::to_string(p.input));
    }
    if (p.rejected_wires) errors.push_back("captured wires failed to open");
  }
  for (std::size_t k = 0; k < n_inputs; ++k) {
    const SimResult& r = passes[k].sim;
    if (r.discouraged != 0 || r.banned != 0) {
      errors.push_back("input " + std::to_string(k) +
                       ": an honest player ended discouraged or banned");
      frames_failed = frames_run;
    }
    if (passes[k].probe.messages == 0) {
      errors.push_back("input " + std::to_string(k) + ": nothing delivered");
      frames_failed = frames_run;
    }
  }
  if (std::erase_if(setup_s, [](double v) { return std::isnan(v); }) > 0) {
    errors.push_back("a cold set-up child failed");
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "frame_bench: %s\n", e.c_str());
  }

  // ---- simulated results, pooled over the inputs (passes[0..n_inputs))
  SimResult sum;
  ProbeStats probe;
  std::vector<double> delivery_p99, handoff_p99;
  for (std::size_t k = 0; k < n_inputs; ++k) {
    const SimResult& r = passes[k].sim;
    const ProbeStats& p = passes[k].probe;
    sum.bits_sent += r.bits_sent;
    sum.attempts += r.attempts;
    sum.failures += r.failures;
    sum.undecodable += r.undecodable;
    sum.reports += r.reports;
    sum.flagged += r.flagged;
    sum.discouraged += r.discouraged;
    sum.banned += r.banned;
    sum.snapshot_bytes += r.snapshot_bytes;
    delivery_p99.push_back(r.delivery_p99_ms);
    handoff_p99.push_back(r.handoff_p99_ms);
    probe.sends += p.sends;
    probe.send_bytes += p.send_bytes;
    probe.deliveries += p.deliveries;
    probe.batches += p.batches;
    probe.batched_messages += p.batched_messages;
  }
  const double inputs_d = static_cast<double>(n_inputs);
  const double sim_frames = inputs_d * static_cast<double>(w.frames);
  const auto per_frame = [&](std::uint64_t v) {
    return static_cast<double>(v) / sim_frames;
  };
  const auto per_input = [&](std::uint64_t v) {
    return static_cast<double>(v) / inputs_d;
  };

  // ---- wall-clock results over the passes of the reported kind
  std::vector<double> frame_ms, round_ms, snapshot_ms, cpu_per_peer;
  std::vector<double> open_ns, sign_ns, verify_ns;
  // Per-call clocks (traced passes): time per call over all of them.
  std::int64_t handler_ns = 0, send_ns = 0, run_until_ns = 0;
  std::uint64_t messages = 0, sends = 0;
  double traced_wall_ms = 0, traced_frames = 0;
  for (const PassOut& p : passes) {
    if (p.kind != main_kind) continue;
    handler_ns += p.probe.handler_ns;
    send_ns += p.probe.send_ns;
    run_until_ns += p.probe.run_until_ns;
    messages += p.probe.messages;
    sends += p.probe.sends;
    traced_wall_ms += p.wall_ms;
    traced_frames += static_cast<double>(w.frames);
    frame_ms.insert(frame_ms.end(), p.frame_ms.begin(), p.frame_ms.end());
    round_ms.insert(round_ms.end(), p.round_frame_ms.begin(),
                    p.round_frame_ms.end());
    snapshot_ms.insert(snapshot_ms.end(), p.snapshot_ms.begin(),
                       p.snapshot_ms.end());
    cpu_per_peer.push_back(p.cpu_us / static_cast<double>(w.frames) /
                           static_cast<double>(w.players));
    open_ns.push_back(p.open_ns);
    sign_ns.push_back(p.sign_ns);
    verify_ns.push_back(p.verify_ns);
  }

  Result res;
  if (!traced_run) {
    const double game_s = sim_frames * static_cast<double>(kFrameMs) / 1e3;
    res.metric("frame_ms_p50", median(frame_ms), "ms");
    res.metric("round_frame_ms_p50", median(round_ms), "ms");
    res.metric("peer_cpu_us", median(cpu_per_peer), "us");
    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", rss_mb, "MB");
    res.metric("upload_kbps",
               static_cast<double>(sum.bits_sent) /
                   static_cast<double>(w.players) / game_s / 1e3,
               "kbit/s");
    res.metric("delivery_age_ms_p99", median(delivery_p99), "ms");
    res.metric("handoff_ms_p99", median(handoff_p99), "ms");
    res.metric("snapshot_ms_p50", median(snapshot_ms), "ms");
    res.metric("ok_share",
               1.0 - static_cast<double>(sum.failures) /
                         static_cast<double>(std::max<std::uint64_t>(1, sum.attempts)),
               "share");
  } else {
    // Tracing overhead: traced over untraced median frame time, per input
    // that ran both ways, then the median over those inputs.
    std::vector<double> overhead;
    for (std::size_t k = 0; k < n_inputs; ++k) {
      std::vector<double> untraced, traced;
      for (const PassOut& p : passes) {
        if (p.input != k || p.kind == PassKind::kOtherThreads) continue;
        auto& dst = p.kind == PassKind::kTraced ? traced : untraced;
        dst.insert(dst.end(), p.frame_ms.begin(), p.frame_ms.end());
      }
      if (!untraced.empty() && !traced.empty()) {
        overhead.push_back(median(traced) / median(untraced) - 1.0);
      }
    }
    std::vector<double> record_s;
    for (const Input& in : bench.inputs()) record_s.push_back(in.record_s);
    res.metric("core.deliver_ns_per_msg",
               static_cast<double>(handler_ns) / static_cast<double>(messages),
               "ns");
    res.metric("core.deliveries_per_frame", per_frame(probe.deliveries), "count");
    res.metric("core.open_ns", median(open_ns), "ns");
    res.metric("crypto.sign_ns", median(sign_ns), "ns");
    res.metric("crypto.verify_ns", median(verify_ns), "ns");
    res.metric("net.run_until_self_ms_per_frame",
               static_cast<double>(run_until_ns - handler_ns) / 1e6 /
                   traced_frames, "ms");
    res.metric("net.send_ns",
               static_cast<double>(send_ns) / static_cast<double>(sends), "ns");
    res.metric("net.sends_per_frame", per_frame(probe.sends), "count");
    res.metric("net.bytes_per_frame", per_frame(probe.send_bytes), "B");
    res.metric("core.rest_ms_per_frame",
               (traced_wall_ms - static_cast<double>(run_until_ns) / 1e6) /
                   traced_frames, "ms");
    res.metric("core.msgs_per_batch",
               probe.batches ? static_cast<double>(probe.batched_messages) /
                                   static_cast<double>(probe.batches)
                             : 1.0, "count");
    res.metric("core.undecodable_updates", per_input(sum.undecodable), "count");
    res.metric("interest.sets_us_per_player", bench.time_interest(0), "us");
    res.metric("obs.snapshot_bytes", per_input(sum.snapshot_bytes), "B");
    res.metric("obs.trace_overhead", median(overhead), "share");
    res.metric("verify.reports_per_frame", per_frame(sum.reports), "count");
    res.metric("verify.honest_flagged", per_input(sum.flagged), "count");
    res.metric("reputation.discouraged", per_input(sum.discouraged), "count");
    res.metric("reputation.banned", per_input(sum.banned), "count");
    res.metric("game.record_s", median(record_s), "s");
  }
  const bool correct = errors.empty();
  res.print(correct, frames_run, frames_failed);
  return correct ? 0 : 1;
}
