#include "obs/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "cheat/cheats.hpp"
#include "util/bytes.hpp"

namespace watchmen::obs {

namespace {

constexpr char kMagic[5] = {'W', 'M', 'R', 'E', 'C'};

void put_bool(ByteWriter& w, bool v) { w.u8(v ? 1 : 0); }

bool get_bool(ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) throw DecodeError("invalid bool in .wmrec");
  return v != 0;
}

void put_tolerance(ByteWriter& w, const verify::Tolerance& t) {
  w.f64(t.mean);
  w.f64(t.stddev);
}

verify::Tolerance get_tolerance(ByteReader& r) {
  verify::Tolerance t;
  t.mean = r.f64();
  t.stddev = r.f64();
  return t;
}

void put_watchmen_config(ByteWriter& w, const core::WatchmenConfig& c) {
  w.f64(c.interest.vision.radius);
  w.f64(c.interest.vision.half_angle);
  put_bool(w, c.interest.vision.use_occlusion);
  w.f64(c.interest.attention.proximity);
  w.f64(c.interest.attention.aim);
  w.f64(c.interest.attention.recency);
  w.f64(c.interest.attention.recency_tau);
  w.varint(c.interest.is_size);
  w.f64(c.interest.is_hysteresis);
  w.i64(c.renewal_frames);
  put_tolerance(w, c.guidance_tolerance);
  w.f64(c.dr_damping);
  put_bool(w, c.direct_updates);
  put_bool(w, c.hardened);
  w.u32(c.other_update_budget);
}

core::WatchmenConfig get_watchmen_config(ByteReader& r) {
  core::WatchmenConfig c;
  c.interest.vision.radius = r.f64();
  c.interest.vision.half_angle = r.f64();
  c.interest.vision.use_occlusion = get_bool(r);
  c.interest.attention.proximity = r.f64();
  c.interest.attention.aim = r.f64();
  c.interest.attention.recency = r.f64();
  c.interest.attention.recency_tau = r.f64();
  c.interest.is_size = r.varint();
  c.interest.is_hysteresis = r.f64();
  c.renewal_frames = r.i64();
  c.guidance_tolerance = get_tolerance(r);
  c.dr_damping = r.f64();
  c.direct_updates = get_bool(r);
  c.hardened = get_bool(r);
  c.other_update_budget = r.u32();
  return c;
}

void put_fault_plan(ByteWriter& w, const net::FaultPlan& p) {
  w.varint(p.bursts.size());
  for (const auto& b : p.bursts) {
    w.i64(b.begin);
    w.i64(b.end);
    w.f64(b.model.p_enter_bad);
    w.f64(b.model.p_exit_bad);
    w.f64(b.model.loss_good);
    w.f64(b.model.loss_bad);
  }
  w.varint(p.partitions.size());
  for (const auto& pw : p.partitions) {
    w.i64(pw.begin);
    w.i64(pw.end);
    w.varint(pw.group.size());
    for (PlayerId q : pw.group) w.u32(q);
  }
  w.varint(p.link_downs.size());
  for (const auto& l : p.link_downs) {
    w.i64(l.begin);
    w.i64(l.end);
    w.u32(l.a);
    w.u32(l.b);
  }
  w.varint(p.latency_spikes.size());
  for (const auto& s : p.latency_spikes) {
    w.i64(s.begin);
    w.i64(s.end);
    w.f64(s.extra_ms);
  }
  w.varint(p.class_drops.size());
  for (const auto& d : p.class_drops) {
    w.i64(d.begin);
    w.i64(d.end);
    w.u8(d.msg_class);
    w.f64(d.probability);
  }
  w.varint(p.crashes.size());
  for (const auto& c : p.crashes) {
    w.i64(c.at);
    w.u32(c.player);
    w.i64(c.rejoin);
  }
}

net::FaultPlan get_fault_plan(ByteReader& r) {
  // Element loops read bytes each iteration, so a hostile count hits the
  // reader's end-of-buffer check long before allocation matters (no reserve).
  net::FaultPlan p;
  for (auto n = r.varint(); n > 0; --n) {
    net::BurstWindow b;
    b.begin = r.i64();
    b.end = r.i64();
    b.model.p_enter_bad = r.f64();
    b.model.p_exit_bad = r.f64();
    b.model.loss_good = r.f64();
    b.model.loss_bad = r.f64();
    p.bursts.push_back(b);
  }
  for (auto n = r.varint(); n > 0; --n) {
    net::PartitionWindow pw;
    pw.begin = r.i64();
    pw.end = r.i64();
    for (auto m = r.varint(); m > 0; --m) pw.group.push_back(r.u32());
    p.partitions.push_back(std::move(pw));
  }
  for (auto n = r.varint(); n > 0; --n) {
    net::LinkDownWindow l;
    l.begin = r.i64();
    l.end = r.i64();
    l.a = r.u32();
    l.b = r.u32();
    p.link_downs.push_back(l);
  }
  for (auto n = r.varint(); n > 0; --n) {
    net::LatencySpikeWindow s;
    s.begin = r.i64();
    s.end = r.i64();
    s.extra_ms = r.f64();
    p.latency_spikes.push_back(s);
  }
  for (auto n = r.varint(); n > 0; --n) {
    net::ClassDropWindow d;
    d.begin = r.i64();
    d.end = r.i64();
    d.msg_class = r.u8();
    d.probability = r.f64();
    p.class_drops.push_back(d);
  }
  for (auto n = r.varint(); n > 0; --n) {
    net::CrashEvent c;
    c.at = r.i64();
    c.player = r.u32();
    c.rejoin = r.i64();
    p.crashes.push_back(c);
  }
  return p;
}

void put_options(ByteWriter& w, const core::SessionOptions& o) {
  put_watchmen_config(w, o.watchmen);
  put_bool(w, o.misbehavior_enforcement);
  w.u64(o.seed);
  w.u8(static_cast<std::uint8_t>(o.net));
  w.f64(o.fixed_latency_ms);
  w.f64(o.loss_rate);
  w.varint(o.pool_weights.size());
  for (const auto& [p, weight] : o.pool_weights) {
    w.u32(p);
    w.f64(weight);
  }
  w.varint(o.upload_bps.size());
  for (const auto& [p, bps] : o.upload_bps) {
    w.u32(p);
    w.f64(bps);
  }
  w.varint(o.compute_threads);
  put_fault_plan(w, o.faults);
}

core::SessionOptions get_options(ByteReader& r) {
  core::SessionOptions o;
  o.watchmen = get_watchmen_config(r);
  o.misbehavior_enforcement = get_bool(r);
  o.seed = r.u64();
  o.net = checked_enum<core::NetProfile>(r.u8(), 4, "net profile");
  o.fixed_latency_ms = r.f64();
  o.loss_rate = r.f64();
  for (auto n = r.varint(); n > 0; --n) {
    const PlayerId p = r.u32();
    const double weight = r.f64();
    o.pool_weights.emplace_back(p, weight);
  }
  for (auto n = r.varint(); n > 0; --n) {
    const PlayerId p = r.u32();
    const double bps = r.f64();
    o.upload_bps.emplace_back(p, bps);
  }
  o.compute_threads = r.varint();
  o.faults = get_fault_plan(r);
  return o;
}

/// Everything the session would refuse, and every player reference it will
/// index with, is checked here: a decoded recording that violates this is
/// malformed, not a crash or an exception from deep inside replay_run.
void validate(const Recording& rec) {
  const auto n = rec.trace.n_players;
  const auto fail = [](const std::string& what) {
    throw DecodeError(".wmrec " + what);
  };
  if (n < 2) fail("trace needs at least 2 players");
  if (rec.trace.frames.empty()) fail("trace has no frames");
  if (rec.options.watchmen.renewal_frames <= 0) {
    fail("renewal_frames must be positive");
  }
  const auto check = [&](PlayerId p, const char* what) {
    if (p >= n) fail(std::string(what) + " references player out of range");
  };
  for (const auto& c : rec.cheats) check(c.player, "cheat");
  // The weighted proxy draw needs finite, non-negative weights and, for
  // every player, at least one other member with positive weight.
  std::vector<double> weights(n, 1.0);
  for (const auto& [p, w] : rec.options.pool_weights) {
    check(p, "pool weight");
    if (!std::isfinite(w) || w < 0.0) fail("pool weight out of range");
    weights[p] = w;
  }
  if (std::count_if(weights.begin(), weights.end(),
                    [](double w) { return w > 0.0; }) < 2) {
    fail("proxy pool has fewer than 2 members");
  }
  // The session starts this many interest workers: a hostile file must not
  // be able to ask for thousands. More workers than players never helps.
  if (rec.options.compute_threads > n) {
    fail("compute_threads exceeds the player count");
  }
  for (const auto& [p, b] : rec.options.upload_bps) check(p, "upload cap");
  for (const auto& c : rec.options.faults.crashes) check(c.player, "crash");
  for (const auto& e : rec.events) {
    if (e.kind == RecEventKind::kDisconnect ||
        e.kind == RecEventKind::kReconnect) {
      check(e.player, "churn event");
    }
  }
}

}  // namespace

const char* to_string(RosterCheat c) {
  switch (c) {
    case RosterCheat::kSpeedHack: return "speed_hack";
    case RosterCheat::kGuidanceLie: return "guidance_lie";
    case RosterCheat::kFakeKill: return "fake_kill";
    case RosterCheat::kSuppressCorrect: return "suppress_correct";
    case RosterCheat::kFastRate: return "fast_rate";
    case RosterCheat::kEscape: return "escape";
    case RosterCheat::kTimeCheat: return "time_cheat";
  }
  return "?";
}

std::size_t roster_cheat_arity(RosterCheat c) {
  switch (c) {
    case RosterCheat::kSpeedHack: return 3;
    case RosterCheat::kGuidanceLie: return 3;
    case RosterCheat::kFakeKill: return 2;
    case RosterCheat::kSuppressCorrect: return 2;
    case RosterCheat::kFastRate: return 3;
    case RosterCheat::kEscape: return 1;
    case RosterCheat::kTimeCheat: return 3;
  }
  return 0;
}

std::vector<std::uint8_t> Recording::serialize() const {
  ByteWriter w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(kVersion);
  put_options(w, options);
  w.varint(cheats.size());
  for (const auto& c : cheats) {
    w.u8(static_cast<std::uint8_t>(c.kind));
    w.u32(c.player);
    w.varint(c.params.size());
    for (double v : c.params) w.f64(v);
  }
  w.blob(trace.serialize());
  w.varint(static_cast<std::uint64_t>(checkpoint_period));
  w.varint(events.size());
  for (const auto& e : events) {
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.i64(e.frame);
    switch (e.kind) {
      case RecEventKind::kDisconnect:
      case RecEventKind::kReconnect:
        w.u32(e.player);
        break;
      case RecEventKind::kCheckpoint:
      case RecEventKind::kEnd:
        w.bytes(e.digest);
        break;
    }
  }
  return w.take();
}

Recording Recording::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  for (char c : kMagic) {
    if (r.u8() != static_cast<std::uint8_t>(c)) {
      throw DecodeError("not a .wmrec file (bad magic)");
    }
  }
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    throw DecodeError(".wmrec version " + std::to_string(version) +
                      " unsupported (this build reads v" +
                      std::to_string(kVersion) + " only)");
  }

  Recording rec;
  rec.options = get_options(r);
  for (auto n = r.varint(); n > 0; --n) {
    CheatSpec c;
    c.kind = checked_enum<RosterCheat>(r.u8(), kNumRosterCheats, "roster cheat");
    c.player = r.u32();
    for (auto m = r.varint(); m > 0; --m) c.params.push_back(r.f64());
    if (c.params.size() != roster_cheat_arity(c.kind)) {
      throw DecodeError("wrong parameter count for roster cheat");
    }
    rec.cheats.push_back(std::move(c));
  }
  const auto trace_bytes = r.blob();
  rec.trace = game::GameTrace::deserialize(trace_bytes);
  rec.checkpoint_period = static_cast<Frame>(r.varint());
  if (rec.checkpoint_period <= 0) {
    throw DecodeError("checkpoint period must be positive");
  }
  for (auto n = r.varint(); n > 0; --n) {
    RecEvent e;
    e.kind = checked_enum<RecEventKind>(r.u8(), kNumRecEventKinds,
                                        "recorder event kind");
    e.frame = r.i64();
    switch (e.kind) {
      case RecEventKind::kDisconnect:
      case RecEventKind::kReconnect:
        e.player = r.u32();
        break;
      case RecEventKind::kCheckpoint:
      case RecEventKind::kEnd: {
        const auto d = r.bytes(e.digest.size());
        std::copy(d.begin(), d.end(), e.digest.begin());
        break;
      }
    }
    rec.events.push_back(e);
  }
  r.expect_done("trailing bytes after .wmrec payload");
  validate(rec);
  return rec;
}

void Recording::save(const std::string& path) const {
  const auto bytes = serialize();
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("short write: " + path);
}

Recording Recording::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  return deserialize(bytes);
}

void Recording::clear_outputs() {
  std::erase_if(events, [](const RecEvent& e) {
    return e.kind == RecEventKind::kCheckpoint || e.kind == RecEventKind::kEnd;
  });
}

crypto::Digest session_digest(const core::WatchmenSession& s) {
  ByteWriter w;
  w.i64(s.current_frame());

  const net::NetStats& ns = s.network().stats();
  w.u64(ns.sent);
  w.u64(ns.delivered);
  w.u64(ns.dropped);
  w.u64(ns.bits_sent);
  for (std::uint64_t d : ns.dropped_by_class) w.u64(d);

  const std::size_t n = s.num_players();
  for (PlayerId p = 0; p < n; ++p) {
    put_bool(w, s.connected(p));
    const core::PeerMetrics& m = s.peer(p).metrics();
    w.u64(m.updates_received);
    w.u64(m.messages_sent);
    w.u64(m.forwarded);
    w.u64(m.sig_rejects);
    w.u64(m.dropped_replays);
    for (std::uint64_t v : m.sent_by_type) w.u64(v);
    for (std::uint64_t v : m.retransmits_by_type) w.u64(v);
    w.u64(m.acks_sent);
    w.u64(m.acks_received);
    w.u64(m.reliable_expired);
    w.u64(m.failover_adoptions);
    w.varint(m.update_age_frames.count());
    w.varint(m.staleness_frames.count());
    for (PlayerId q = 0; q < n; ++q) {
      const core::RemoteKnowledge& k = s.peer(p).knowledge_of(q);
      w.f64(k.pos.x);
      w.f64(k.pos.y);
      w.f64(k.pos.z);
      w.i64(k.pos_frame);
      w.i64(k.track.state_frame);
      put_bool(w, k.track.has_state);
      w.i64(s.peer(p).link().last_heard(q));
      w.i64(k.newest_frame);
      w.u32(k.newest_seq);
    }
  }

  const auto& reports = s.detector().reports();
  w.varint(reports.size());
  for (const auto& r : reports) {
    w.u32(r.verifier);
    w.u32(r.suspect);
    w.u8(static_cast<std::uint8_t>(r.type));
    w.u8(static_cast<std::uint8_t>(r.vantage));
    w.i64(r.frame);
    w.f64(r.deviation);
    w.f64(r.rating);
  }

  return crypto::Sha256::hash(w.data());
}

game::GameMap map_for(const Recording& rec) {
  const std::string& name = rec.trace.map_name;
  if (name == "q3dm17-like") return game::make_longest_yard();
  if (name == "q3dm6-like") return game::make_campgrounds();
  if (name == "test-arena") return game::make_test_arena();
  throw DecodeError("unknown map in recording: " + name);
}

std::unordered_map<PlayerId, core::Misbehavior*> make_misbehaviors(
    const std::vector<CheatSpec>& cheats, std::size_t n_players,
    std::vector<std::unique_ptr<core::Misbehavior>>& owned) {
  std::unordered_map<PlayerId, core::Misbehavior*> out;
  for (const auto& c : cheats) {
    if (c.params.size() != roster_cheat_arity(c.kind)) {
      throw DecodeError("wrong parameter count for roster cheat");
    }
    const auto& ps = c.params;
    std::unique_ptr<core::Misbehavior> m;
    switch (c.kind) {
      case RosterCheat::kSpeedHack:
        m = std::make_unique<cheat::SpeedHackCheat>(
            static_cast<std::uint64_t>(ps[0]), ps[1], ps[2]);
        break;
      case RosterCheat::kGuidanceLie:
        m = std::make_unique<cheat::GuidanceLieCheat>(
            static_cast<std::uint64_t>(ps[0]), ps[1], ps[2]);
        break;
      case RosterCheat::kFakeKill:
        m = std::make_unique<cheat::FakeKillCheat>(
            static_cast<std::uint64_t>(ps[0]), ps[1], c.player, n_players);
        break;
      case RosterCheat::kSuppressCorrect:
        m = std::make_unique<cheat::SuppressCorrectCheat>(
            static_cast<Frame>(ps[0]), static_cast<Frame>(ps[1]));
        break;
      case RosterCheat::kFastRate:
        m = std::make_unique<cheat::FastRateCheat>(static_cast<int>(ps[0]),
                                                   static_cast<Frame>(ps[1]),
                                                   static_cast<Frame>(ps[2]));
        break;
      case RosterCheat::kEscape:
        m = std::make_unique<cheat::EscapeCheat>(static_cast<Frame>(ps[0]));
        break;
      case RosterCheat::kTimeCheat:
        m = std::make_unique<cheat::TimeCheat>(static_cast<Frame>(ps[0]),
                                               static_cast<Frame>(ps[1]),
                                               static_cast<Frame>(ps[2]));
        break;
    }
    out[c.player] = m.get();
    owned.push_back(std::move(m));
  }
  return out;
}

namespace {

/// Drives a session through the recording's frames, applying scripted churn
/// and invoking `checkpoint(frame)` on the shared digest schedule: every
/// checkpoint_period frames, plus once at the end. Record and replay run
/// through this one function, so their schedules cannot drift apart.
template <typename CheckpointFn>
void drive(core::WatchmenSession& session, const Recording& rec,
           CheckpointFn&& checkpoint) {
  struct Churn {
    Frame frame;
    PlayerId player;
    bool disconnect;
  };
  std::vector<Churn> churn;
  for (const auto& e : rec.events) {
    if (e.kind == RecEventKind::kDisconnect) {
      churn.push_back({e.frame, e.player, true});
    } else if (e.kind == RecEventKind::kReconnect) {
      churn.push_back({e.frame, e.player, false});
    }
  }
  std::stable_sort(churn.begin(), churn.end(),
                   [](const Churn& a, const Churn& b) { return a.frame < b.frame; });

  const auto total = static_cast<Frame>(rec.trace.num_frames());
  std::size_t next_churn = 0;
  for (Frame f = 0; f < total; ++f) {
    while (next_churn < churn.size() && churn[next_churn].frame <= f) {
      const Churn& c = churn[next_churn++];
      if (c.disconnect) {
        session.disconnect(c.player);
      } else {
        session.reconnect(c.player);
      }
    }
    session.run_frames(1);
    const Frame now = session.current_frame();
    if (now < total && now % rec.checkpoint_period == 0) {
      checkpoint(now, /*is_end=*/false);
    }
  }
  checkpoint(session.current_frame(), /*is_end=*/true);
}

}  // namespace

void record_run(Recording& rec) {
  rec.clear_outputs();
  // Canonicalize the trace through its own codec before running: the trace
  // format quantizes doubles to f32, so digests must be computed from the
  // exact trace a loaded .wmrec will replay, not the full-precision
  // in-memory original. Quantization is idempotent, so re-recording a
  // loaded recording leaves the trace (and the digests) unchanged.
  rec.trace = game::GameTrace::deserialize(rec.trace.serialize());
  const game::GameMap map = map_for(rec);
  std::vector<std::unique_ptr<core::Misbehavior>> owned;
  const auto misbehaviors = make_misbehaviors(rec.cheats, rec.trace.n_players, owned);
  core::WatchmenSession session(rec.trace, map, rec.options, misbehaviors);
  drive(session, rec, [&](Frame f, bool is_end) {
    RecEvent e;
    e.kind = is_end ? RecEventKind::kEnd : RecEventKind::kCheckpoint;
    e.frame = f;
    e.digest = session_digest(session);
    rec.events.push_back(e);
  });
}

ReplayReport replay_run(const Recording& rec) {
  std::vector<RecEvent> expected;
  for (const auto& e : rec.events) {
    if (e.kind == RecEventKind::kCheckpoint || e.kind == RecEventKind::kEnd) {
      expected.push_back(e);
    }
  }

  const game::GameMap map = map_for(rec);
  std::vector<std::unique_ptr<core::Misbehavior>> owned;
  const auto misbehaviors = make_misbehaviors(rec.cheats, rec.trace.n_players, owned);
  core::WatchmenSession session(rec.trace, map, rec.options, misbehaviors);

  ReplayReport report;
  std::size_t idx = 0;
  drive(session, rec, [&](Frame f, bool is_end) {
    const auto want_kind = is_end ? RecEventKind::kEnd : RecEventKind::kCheckpoint;
    if (idx >= expected.size()) {
      report.ok = false;
      if (report.first_divergence < 0) report.first_divergence = f;
      return;
    }
    const RecEvent& want = expected[idx++];
    ++report.checkpoints_checked;
    const bool match = want.kind == want_kind && want.frame == f &&
                       want.digest == session_digest(session);
    if (!match) {
      report.ok = false;
      if (report.first_divergence < 0) report.first_divergence = f;
    }
  });
  if (idx != expected.size()) {
    report.ok = false;
    if (report.first_divergence < 0 && idx < expected.size()) {
      report.first_divergence = expected[idx].frame;
    }
  }
  return report;
}

}  // namespace watchmen::obs
