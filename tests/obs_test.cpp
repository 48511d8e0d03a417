// Observability subsystem (ISSUE 5): JSON writer, metrics registry, frame
// tracer, and the deterministic flight recorder with replay.
//
// The flight-recorder tests are the subsystem's reason to exist: a
// 200-frame chaos scenario (bursty loss, a proxy crash, scripted churn and
// a cheat roster) is recorded, round-tripped through the .wmrec codec, and
// replayed to bit-identical checkpoint digests — the same gate CI runs via
// `deathmatch_48 --record / --replay`.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "game/map.hpp"
#include "game/trace.hpp"
#include "net/fault.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace watchmen::obs {
namespace {

// --- JsonWriter ----------------------------------------------------------

TEST(JsonWriter, NestedObjectsAndArrays) {
  JsonWriter j;
  j.begin_object();
  j.kv("n", std::uint64_t{48});
  j.key("inner");
  j.begin_object();
  j.kv("ok", true);
  j.end_object();
  j.key("xs");
  j.begin_array();
  j.value(1);
  j.value(2);
  j.end_array();
  j.end_object();
  const std::string out = j.take();
  EXPECT_EQ(out,
            "{\n"
            "  \"n\": 48,\n"
            "  \"inner\": {\n"
            "    \"ok\": true\n"
            "  },\n"
            "  \"xs\": [\n"
            "    1,\n"
            "    2\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, EscapesStringsAndRejectsNonFinite) {
  JsonWriter j;
  j.begin_object();
  j.kv("s", "a\"b\\c\nd");
  j.kv("nan", std::numeric_limits<double>::quiet_NaN());
  j.kv("inf", std::numeric_limits<double>::infinity());
  j.end_object();
  const std::string out = j.take();
  EXPECT_NE(out.find("\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(out.find("\"nan\": null"), std::string::npos);
  EXPECT_NE(out.find("\"inf\": null"), std::string::npos);
}

TEST(JsonWriter, EmptyScopes) {
  JsonWriter j;
  j.begin_object();
  j.key("o");
  j.begin_object();
  j.end_object();
  j.key("a");
  j.begin_array();
  j.end_array();
  j.end_object();
  EXPECT_EQ(j.take(), "{\n  \"o\": {},\n  \"a\": []\n}\n");
}

// --- Registry ------------------------------------------------------------

TEST(Registry, CountersAndGaugesAreStable) {
  Registry reg;
  Counter& c = reg.counter("net.sent");
  c.add(3);
  reg.counter("net.sent").add(2);  // same metric, same storage
  EXPECT_EQ(reg.counter("net.sent").value(), 5u);
  EXPECT_EQ(&c, &reg.counter("net.sent"));

  reg.gauge("age").set(1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("age").value(), 1.5);

  EXPECT_EQ(reg.num_metrics(), 2u);
}

TEST(Registry, PlayerLabelsMangleTheName) {
  Registry reg;
  reg.counter("peer.drops", PlayerId{7}).add(1);
  EXPECT_EQ(reg.counter("peer.drops{player=7}").value(), 1u);
  EXPECT_EQ(Registry::labeled("x", 12), "x{player=12}");
}

TEST(Registry, CollectorsRunAtSnapshotAndDeregister) {
  Registry reg;
  int runs = 0;
  const auto id = reg.add_collector([&](Registry& r) {
    ++runs;
    r.counter("pulled").set(static_cast<std::uint64_t>(runs));
  });
  const std::string snap = reg.snapshot_json();
  EXPECT_EQ(runs, 1);
  EXPECT_NE(snap.find("\"pulled\": 1"), std::string::npos);
  reg.remove_collector(id);
  reg.snapshot_json();
  EXPECT_EQ(runs, 1);
}

TEST(Registry, SnapshotJsonSchema) {
  Registry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("g").set(0.5);
  const std::string snap = reg.snapshot_json();
  EXPECT_NE(snap.find("\"counters\""), std::string::npos);
  EXPECT_NE(snap.find("\"gauges\""), std::string::npos);
  // Map-ordered keys: "a" before "b".
  EXPECT_LT(snap.find("\"a\": 1"), snap.find("\"b\": 2"));
  EXPECT_NE(snap.find("\"g\": 0.5"), std::string::npos);
}

// --- Tracer --------------------------------------------------------------

TEST(Tracer, RingWrapKeepsTheLatestEvents) {
  Tracer t(4);
  std::int64_t now = 0;
  t.set_clock([&now] { return now++; });
  for (Frame f = 0; f < 10; ++f) t.instant("tick", f);
  EXPECT_EQ(t.total_events(), 10u);
  EXPECT_EQ(t.dropped_events(), 6u);
  const std::string json = t.chrome_trace_json();
  // Only frames 6..9 survive in the 4-slot ring.
  EXPECT_EQ(json.find("\"frame\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"frame\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"frame\": 9"), std::string::npos);
}

TEST(Tracer, SpansEmitBeginEndPairs) {
  Tracer t;
  std::int64_t now = 0;
  t.set_clock([&now] { return now++; });
  {
    const Span s(&t, "frame", Frame{3}, PlayerId{1});
    t.instant("mid", Frame{3});
  }
  EXPECT_EQ(t.total_events(), 3u);
  const std::string json = t.chrome_trace_json();
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"player\": 1"), std::string::npos);
  // Begin sorts before end under the injected monotonic clock.
  EXPECT_LT(json.find("\"ph\": \"B\""), json.find("\"ph\": \"E\""));
}

TEST(Tracer, NullTracerSpanIsANoOp) {
  const Span s(nullptr, "frame", Frame{0});  // must not crash
}

TEST(Tracer, ThreadsGetTheirOwnRings) {
  Tracer t;
  std::thread a([&] { for (int i = 0; i < 50; ++i) t.instant("a", Frame{i}); });
  std::thread b([&] { for (int i = 0; i < 50; ++i) t.instant("b", Frame{i}); });
  a.join();
  b.join();
  t.instant("main", Frame{0});
  EXPECT_EQ(t.total_events(), 101u);
  EXPECT_EQ(t.num_threads(), 3u);
  t.clear();
  EXPECT_EQ(t.total_events(), 0u);
}

// --- Session integration -------------------------------------------------

core::SessionOptions fast_options() {
  core::SessionOptions opts;
  opts.net = core::NetProfile::kFixed;
  opts.fixed_latency_ms = 10.0;
  opts.loss_rate = 0.0;
  opts.compute_threads = 1;
  return opts;
}

TEST(SessionObs, RegistryAndTracerMirrorTheRun) {
  const game::GameMap map = game::make_test_arena();
  game::SessionConfig cfg;
  cfg.n_players = 4;
  cfg.n_frames = 60;
  const game::GameTrace trace = game::record_session(map, cfg);

  Registry reg;
  Tracer tracer;
  core::SessionOptions opts = fast_options();
  opts.registry = &reg;
  opts.tracer = &tracer;
  {
    core::WatchmenSession session(trace, map, opts);
    session.run();
    const std::string snap = reg.snapshot_json();
    EXPECT_NE(snap.find("\"session.frames\": 60"), std::string::npos);
    EXPECT_NE(snap.find("\"net.sent\""), std::string::npos);
    EXPECT_NE(snap.find("net.bits_sent{type=state-update}"), std::string::npos);
    EXPECT_NE(snap.find("\"peer.updates_received\""), std::string::npos);
    EXPECT_NE(snap.find("peer.staleness_p99{player=0}"), std::string::npos);
    EXPECT_GT(reg.counter("net.sent").value(), 0u);
  }
  // The session deregistered its collector on destruction: a snapshot after
  // the session is gone must not touch freed state.
  const std::string after = reg.snapshot_json();
  EXPECT_NE(after.find("\"session.frames\": 60"), std::string::npos);
  // Frame phases produced spans: 60 frames x (frame + 2x deliver + handoff +
  // interest_compute + dissemination) begin/end pairs.
  EXPECT_GE(tracer.total_events(), 60u * 12u);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"interest_compute\""), std::string::npos);
  EXPECT_NE(json.find("\"dissemination\""), std::string::npos);
}

// --- Flight recorder -----------------------------------------------------

/// 16 players, 200 frames, mid-run chaos: a bursty-loss window, a proxy
/// crash with no rejoin, scripted churn on another player, and a cheat
/// roster covering speed-hack + suppression.
Recording chaos_recording() {
  const game::GameMap map = game::make_test_arena();
  game::SessionConfig cfg;
  cfg.n_players = 16;
  cfg.n_frames = 200;
  cfg.seed = 77;

  Recording rec;
  rec.options = core::SessionOptions{};
  rec.options.net = core::NetProfile::kFixed;
  rec.options.fixed_latency_ms = 15.0;
  rec.options.loss_rate = 0.01;
  rec.options.seed = 7;
  net::FaultPlan plan;
  plan.bursts.push_back({time_of(Frame{60}), time_of(Frame{100}),
                         {0.2, 0.4, 0.02, 0.9}});
  plan.crashes.push_back({Frame{80}, PlayerId{9}, Frame{-1}});
  rec.options.faults = plan;
  rec.cheats = {
      {RosterCheat::kSpeedHack, 0, {1, 0.1, 5.0}},
      {RosterCheat::kSuppressCorrect, 1, {40, 10}},
  };
  rec.trace = game::record_session(map, cfg);
  rec.checkpoint_period = 20;
  rec.events.push_back({RecEventKind::kDisconnect, Frame{50}, PlayerId{3}, {}});
  rec.events.push_back({RecEventKind::kReconnect, Frame{120}, PlayerId{3}, {}});
  return rec;
}

TEST(FlightRecorder, ChaosRunReplaysBitIdentical) {
  Recording rec = chaos_recording();
  record_run(rec);

  std::size_t checkpoints = 0, churn = 0;
  for (const auto& e : rec.events) {
    if (e.kind == RecEventKind::kCheckpoint) ++checkpoints;
    if (e.kind == RecEventKind::kDisconnect ||
        e.kind == RecEventKind::kReconnect) {
      ++churn;
    }
  }
  EXPECT_EQ(checkpoints, 9u);  // frames 20, 40, ..., 180
  EXPECT_EQ(churn, 2u);
  EXPECT_EQ(rec.events.back().kind, RecEventKind::kEnd);

  // The acceptance path: serialize to .wmrec bytes, load them back, replay.
  const auto bytes = rec.serialize();
  const Recording loaded = Recording::deserialize(bytes);
  const ReplayReport report = replay_run(loaded);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.checkpoints_checked, 10u);  // 9 checkpoints + end
  EXPECT_EQ(report.first_divergence, Frame{-1});
}

TEST(FlightRecorder, RecordingIsIdempotent) {
  Recording rec = chaos_recording();
  record_run(rec);
  const auto first = rec.serialize();
  record_run(rec);  // clear_outputs + canonicalized trace: same result
  EXPECT_EQ(rec.serialize(), first);
}

TEST(FlightRecorder, TamperedDigestIsCaught) {
  Recording rec = chaos_recording();
  record_run(rec);
  for (auto& e : rec.events) {
    if (e.kind == RecEventKind::kCheckpoint && e.frame == Frame{100}) {
      e.digest[0] ^= 0xff;
    }
  }
  const ReplayReport report = replay_run(rec);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.first_divergence, Frame{100});
  EXPECT_EQ(report.checkpoints_checked, 10u);  // all checked, even after a miss
}

TEST(FlightRecorder, SerializeIsAFixedPoint) {
  Recording rec = chaos_recording();
  record_run(rec);
  const auto bytes = rec.serialize();
  EXPECT_EQ(Recording::deserialize(bytes).serialize(), bytes);
}

TEST(FlightRecorder, MalformedInputThrowsDecodeError) {
  Recording rec = chaos_recording();
  rec.trace.frames.resize(4);  // keep the codec tests cheap
  record_run(rec);
  auto bytes = rec.serialize();

  EXPECT_THROW(Recording::deserialize({}), DecodeError);
  // Bad magic.
  auto bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_THROW(Recording::deserialize(bad), DecodeError);
  // Unsupported versions, including v1-v3, which predate the v4 option
  // layout (u16 right after the 5-byte magic).
  for (const std::uint8_t v : {1, 2, 3, 0xee}) {
    bad = bytes;
    bad[5] = v;
    bad[6] = 0;
    EXPECT_THROW(Recording::deserialize(bad), DecodeError) << "v" << int{v};
  }
  // Every truncation either throws or is rejected as trailing garbage —
  // never aborts or reads out of bounds.
  for (std::size_t cut : {std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(
        Recording::deserialize(std::span(bytes.data(), cut)), DecodeError)
        << "cut=" << cut;
  }
  // Trailing bytes are rejected (a .wmrec is exactly one recording).
  bad = bytes;
  bad.push_back(0);
  EXPECT_THROW(Recording::deserialize(bad), DecodeError);

  // Well-formed bytes carrying values the session would refuse (or throw on
  // mid-replay) are decode errors too, never exceptions from replay_run.
  const auto rejects = [&rec](const char* what, auto mutate) {
    Recording r = rec;
    mutate(r);
    EXPECT_THROW(Recording::deserialize(r.serialize()), DecodeError) << what;
  };
  rejects("zero renewal", [](Recording& r) {
    r.options.watchmen.renewal_frames = 0;
  });
  rejects("negative renewal", [](Recording& r) {
    r.options.watchmen.renewal_frames = -40;
  });
  rejects("one player", [](Recording& r) {
    r.cheats.clear();
    r.events.clear();
    r.options.faults.crashes.clear();
    r.trace.n_players = 1;
    for (auto& f : r.trace.frames) {
      f.avatars.resize(1);
      f.events = {};
    }
  });
  rejects("no frames", [](Recording& r) { r.trace.frames.clear(); });
  rejects("negative pool weight", [](Recording& r) {
    r.options.pool_weights = {{2, -1.0}};
  });
  rejects("NaN pool weight", [](Recording& r) {
    r.options.pool_weights = {{2, std::numeric_limits<double>::quiet_NaN()}};
  });
  rejects("empty proxy pool", [](Recording& r) {
    for (PlayerId p = 1; p < r.trace.n_players; ++p) {
      r.options.pool_weights.emplace_back(p, 0.0);
    }
  });
  // The session would start one interest worker per requested thread; the
  // decoder caps the request at the player count (decode only: no session
  // is built, no thread started).
  rejects("more compute threads than players", [](Recording& r) {
    r.options.compute_threads = r.trace.n_players + 1;
  });
  rejects("thread bomb", [](Recording& r) {
    r.options.compute_threads = std::size_t{1} << 40;
  });
  Recording at_cap = rec;
  at_cap.options.compute_threads = at_cap.trace.n_players;
  EXPECT_EQ(Recording::deserialize(at_cap.serialize()).options.compute_threads,
            at_cap.trace.n_players);
}

TEST(FlightRecorder, EveryOptionRoundTrips) {
  // Every recorded option set away from its default must come back: a
  // dropped field would replay a different protocol.
  Recording rec = chaos_recording();
  rec.trace.frames.resize(2);
  core::SessionOptions& o = rec.options;
  core::WatchmenConfig& c = o.watchmen;
  c.interest.vision.radius = 1234.5;
  c.interest.vision.half_angle = 0.75;
  c.interest.vision.use_occlusion = false;
  c.interest.attention.proximity = 1.5;
  c.interest.attention.aim = 2.5;
  c.interest.attention.recency = 3.5;
  c.interest.attention.recency_tau = 42.0;
  c.interest.is_size = 7;
  c.interest.is_hysteresis = 1.25;
  c.renewal_frames = 60;
  c.rate_loss_allowance = 0.2;
  c.guidance_tolerance = {150.0, 140.0};
  c.delta_updates = true;
  c.keyframe_period = 12;
  c.dr_damping = 0.5;
  c.direct_updates = true;
  c.reliable_control = true;
  c.proxy_failover_silence = 9;
  c.liveness_watchdog = true;
  c.starve_loss_allowance = 0.6;
  c.starve_floor = 0.25;
  c.other_update_budget = 64;
  o.misbehavior_enforcement = true;
  o.pool_weights = {{2, 0.0}, {3, 2.0}};
  o.upload_bps = {{4, 512000.0}};
  o.compute_threads = 3;

  const Recording back = Recording::deserialize(rec.serialize());
  const core::SessionOptions& bo = back.options;
  EXPECT_EQ(bo.watchmen, c);
  EXPECT_TRUE(bo.misbehavior_enforcement);
  EXPECT_EQ(bo.seed, o.seed);
  EXPECT_EQ(bo.net, o.net);
  EXPECT_EQ(bo.fixed_latency_ms, o.fixed_latency_ms);
  EXPECT_EQ(bo.loss_rate, o.loss_rate);
  EXPECT_EQ(bo.pool_weights, o.pool_weights);
  EXPECT_EQ(bo.upload_bps, o.upload_bps);
  EXPECT_EQ(bo.compute_threads, 3u);
  EXPECT_EQ(bo.faults.bursts.size(), 1u);
  EXPECT_EQ(bo.faults.crashes.size(), 1u);
}

TEST(FlightRecorder, RosterCheatCoverage) {
  // Every recordable cheat kind instantiates through make_misbehaviors.
  std::vector<CheatSpec> all = {
      {RosterCheat::kSpeedHack, 0, {1, 0.5, 4.0}},
      {RosterCheat::kGuidanceLie, 1, {2, 0.5, 2.0}},
      {RosterCheat::kFakeKill, 2, {3, 0.5}},
      {RosterCheat::kSuppressCorrect, 3, {2, 1}},
      {RosterCheat::kFastRate, 4, {1, 0, 6}},
      {RosterCheat::kEscape, 5, {5}},
      {RosterCheat::kTimeCheat, 6, {1, 0, 6}},
  };
  std::vector<std::unique_ptr<core::Misbehavior>> owned;
  const auto mbs = make_misbehaviors(all, 8, owned);
  EXPECT_EQ(mbs.size(), 7u);
  EXPECT_EQ(owned.size(), 7u);

  // Wrong arity is rejected, matching the decoder.
  all[0].params.pop_back();
  std::vector<std::unique_ptr<core::Misbehavior>> owned2;
  EXPECT_THROW(make_misbehaviors(all, 8, owned2), DecodeError);
}

}  // namespace
}  // namespace watchmen::obs
