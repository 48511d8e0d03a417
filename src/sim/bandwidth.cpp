#include "sim/bandwidth.hpp"

#include <algorithm>
#include <utility>

#include "core/messages.hpp"
#include "crypto/sig.hpp"
#include "net/network.hpp"
#include "util/bytes.hpp"

namespace watchmen::sim {

namespace {
constexpr double kUpdatesPerSecond = 1000.0 / static_cast<double>(kFrameMs);  // 20
constexpr double kInfrequentPerSecond =
    kUpdatesPerSecond / static_cast<double>(interest::kGuidancePeriodFrames);  // 1

// The paper wire the v1 model prices no longer ships, so its sizes come
// from its layout: a fixed 21-byte header ([u8 type][u32 origin]
// [u32 subject][i64 frame][u32 seq]), the length-prefixed body and the
// signature.
constexpr std::size_t kPaperHeaderBytes = 21;

double paper_sealed_bits(std::size_t body_bytes) {
  return static_cast<double>(kPaperHeaderBytes + varint_size(body_bytes) +
                             body_bytes + crypto::kSignatureBytes) *
             8 +
         static_cast<double>(net::kUdpOverheadBits);
}

/// Paper-wire state body: a kind byte (0, full state), then the field-mask
/// encoding the shipped body carries alone.
std::size_t paper_state_body_bytes(const game::AvatarState& s) {
  return 1 + core::encode_state_body(s).size();
}

/// Paper-wire guidance body: version byte, i64 frame, f32 position,
/// velocity, yaw and pitch, i32 health, u8 weapon, then the waypoint count
/// and f32 waypoints.
std::size_t paper_guidance_body_bytes(const interest::Guidance& g) {
  return 1 + 8 + 8 * 4 + 4 + 1 + varint_size(g.waypoints.size()) +
         12 * g.waypoints.size();
}
}  // namespace

WireSizes WireSizes::measure() {
  const crypto::KeyRegistry keys(1, 2);
  core::MsgHeader h;
  h.origin = 0;
  h.subject = 1;
  h.frame = 1 << 20;
  h.seq = 12345;

  game::AvatarState s;
  s.pos = {1024.125, 512.5, 96};
  s.vel = {320, -100, 12};
  s.yaw = 1.5;
  s.pitch = -0.2;
  s.health = 92;
  s.armor = 50;
  s.ammo = 77;
  s.frags = 3;

  WireSizes w;
  const double overhead = static_cast<double>(net::kUdpOverheadBits);
  w.state_update = paper_sealed_bits(paper_state_body_bytes(s));
  w.position_update = paper_sealed_bits(core::encode_position_body(s.pos).size());
  const interest::Guidance g = interest::make_guidance(s, 100, 2);
  w.guidance = paper_sealed_bits(paper_guidance_body_bytes(g));
  w.subscribe = paper_sealed_bits(
      core::encode_subscribe_body(interest::SetKind::kInterest).size());
  w.state_payload = static_cast<double>(paper_state_body_bytes(s)) * 8;
  w.snapshot_overhead = 22 * 8 + overhead;  // header + UDP/IP, no signature

  // The shipped wire, measured from the encoders the peers use.
  const auto sealed_bits = [&](std::span<const std::uint8_t> body) {
    return static_cast<double>(core::seal(h, body, keys.key_pair(0)).size()) *
               8 +
           overhead;
  };
  w.state_update_c = sealed_bits(core::encode_state_body(s));
  w.guidance_q = sealed_bits(core::encode_guidance_body(g));
  w.subscriber_diff = sealed_bits(core::encode_subscriber_list_diff_body(
      {1, 2, 5, 8, 13}, {1, 2, 5, 8, 21}));
  w.position_update_c = sealed_bits(core::encode_position_body(s.pos));
  w.subscribe_c =
      sealed_bits(core::encode_subscribe_body(interest::SetKind::kInterest));

  // Batch framing costs, measured from the container encoder itself: the
  // marginal cost of the second sub-message is the per-message framing, and
  // what a singleton adds beyond that is the container header.
  const auto one = core::seal(h, core::encode_state_body(s), keys.key_pair(0));
  const auto b1 = core::encode_batch({one});
  const auto b2 = core::encode_batch({one, one});
  w.batch_frame_bits = static_cast<double>(b2.size() - b1.size() - one.size()) * 8;
  w.batch_container_bits =
      static_cast<double>(b1.size() - one.size()) * 8 - w.batch_frame_bits;
  return w;
}

SetSizeStats measure_set_sizes(const game::GameTrace& trace,
                               const game::GameMap& map,
                               const interest::InterestConfig& cfg,
                               std::size_t stride) {
  SetSizeStats out;
  const std::size_t n = trace.n_players;
  game::TraceReplayer rep(trace);
  std::size_t samples = 0;
  double is_acc = 0.0, vs_acc = 0.0, pvs_acc = 0.0;

  for (std::size_t fi = 0; fi < trace.num_frames(); fi += stride) {
    rep.seek(fi);
    const game::TraceFrame& tf = trace.frames[fi];
    for (PlayerId p = 0; p < n; ++p) {
      const interest::PlayerSets sets = interest::compute_sets(
          p, tf.avatars, map, static_cast<Frame>(fi),
          [&](PlayerId a, PlayerId b) { return rep.last_interaction(a, b); },
          cfg);
      is_acc += static_cast<double>(sets.interest.size());
      vs_acc += static_cast<double>(sets.vision.size());
      std::size_t pvs = 0;
      for (PlayerId q = 0; q < n; ++q) {
        if (q != p && tf.avatars[p].alive && tf.avatars[q].alive &&
            map.visible(tf.avatars[p].eye(), tf.avatars[q].eye())) {
          ++pvs;
        }
      }
      pvs_acc += static_cast<double>(pvs);
      ++samples;
    }
  }
  if (samples > 0 && n > 1) {
    const double denom = static_cast<double>(samples) * static_cast<double>(n - 1);
    out.avg_is = is_acc / static_cast<double>(samples);
    out.vs_fraction = vs_acc / denom;
    out.pvs_fraction = pvs_acc / denom;
  }
  return out;
}

double watchmen_upload_kbps(std::size_t n, const SetSizeStats& s,
                            const WireSizes& w) {
  const double others = static_cast<double>(n - 1);
  const double is = s.avg_is;  // already bounded by the configured K
  const double vs = s.vs_fraction * others;
  const double other_count = std::max(0.0, others - is - vs);

  // As a player: everything goes through the proxy once.
  const double player = kUpdatesPerSecond * w.state_update +
                        kInfrequentPerSecond * (w.guidance + w.position_update) +
                        kInfrequentPerSecond * (is + vs) * w.subscribe;

  // As a proxy (for one player on average): fan updates out to subscribers.
  const double proxy = kUpdatesPerSecond * is * w.state_update +
                       kInfrequentPerSecond * vs * w.guidance +
                       kInfrequentPerSecond * other_count * w.position_update +
                       kInfrequentPerSecond * (is + vs) * w.subscribe;

  return (player + proxy) / 1000.0;
}

double watchmen_upload_kbps_v2(std::size_t n, const SetSizeStats& s,
                               const WireSizes& w, const WireV2Params& p) {
  const double others = static_cast<double>(n - 1);
  const double is = s.avg_is;
  double vs = s.vs_fraction * others;
  // Vision saturates with density on a fixed-size map: extrapolating the
  // sparse-trace fraction linearly past the measured dense trace would
  // charge for players nobody can actually see.
  if (p.vs_cap > 0.0) vs = std::min(vs, p.vs_cap);
  const double other_count = std::max(0.0, others - is - vs);
  // The beacon fan-out is the one O(n) term; other_update_budget rotates a
  // fixed-size window across the set instead (peer.cpp, kPositionUpdate).
  const double other_fanout = p.other_budget > 0.0
                                  ? std::min(other_count, p.other_budget)
                                  : other_count;
  const double overhead = static_cast<double>(net::kUdpOverheadBits);

  // Per-link batching trades one UDP/IP header per message for one per
  // datagram plus cheap internal framing: a message's effective cost drops
  // from (envelope + overhead) to (envelope + length varint) with the
  // datagram's container + overhead split `avg_batch` ways. Singletons
  // (avg_batch <= 1) go bare and the model degenerates to the v1 shape.
  const auto eff = [&](double msg_with_overhead) {
    if (p.avg_batch <= 1.0) return msg_with_overhead;
    return msg_with_overhead - overhead + w.batch_frame_bits +
           (overhead + w.batch_container_bits) / p.avg_batch;
  };

  // Same traffic structure as watchmen_upload_kbps, with the overhauled
  // per-message sizes: quantized guidance, diffs for subscription pushes,
  // compact envelope headers.
  const double player =
      kUpdatesPerSecond * eff(w.state_update_c) +
      kInfrequentPerSecond * (eff(w.guidance_q) + eff(w.position_update_c)) +
      kInfrequentPerSecond * (is + vs) * eff(w.subscribe_c);

  const double proxy =
      kUpdatesPerSecond * is * eff(w.state_update_c) +
      kInfrequentPerSecond * vs * eff(w.guidance_q) +
      kInfrequentPerSecond * other_fanout * eff(w.position_update_c) +
      kInfrequentPerSecond * (is + vs) * eff(w.subscriber_diff);

  return (player + proxy) / 1000.0;
}

double donnybrook_upload_kbps(std::size_t n, const SetSizeStats& s,
                              const WireSizes& w) {
  // Frequent updates to the interest set, dead reckoning to everyone else,
  // all sent directly by the player (no forwarders modelled).
  const double others = static_cast<double>(n - 1);
  const double is = s.avg_is;
  return (kUpdatesPerSecond * is * w.state_update +
          kInfrequentPerSecond * (others - is) * w.guidance) /
         1000.0;
}

double naive_p2p_upload_kbps(std::size_t n, const WireSizes& w) {
  return kUpdatesPerSecond * static_cast<double>(n - 1) * w.state_update / 1000.0;
}

double client_server_server_kbps(std::size_t n, const SetSizeStats& s,
                                 const WireSizes& w) {
  // The server aggregates each client's frame into ONE snapshot packet
  // carrying the payloads of every PVS-visible entity (Quake's actual
  // encoding) — which is what yields the paper's ~120·n kbps figure.
  const double entities = s.pvs_fraction * static_cast<double>(n - 1);
  const double per_client =
      kUpdatesPerSecond * (w.snapshot_overhead + entities * w.state_payload);
  return static_cast<double>(n) * per_client / 1000.0;
}

MeasuredBandwidth watchmen_measured(const game::GameTrace& trace,
                                    const game::GameMap& map,
                                    core::SessionOptions opts) {
  core::WatchmenSession session(trace, map, opts);
  session.run();
  const double seconds = static_cast<double>(trace.num_frames()) *
                         static_cast<double>(kFrameMs) / 1000.0;
  double total_bits = 0.0;
  for (PlayerId p = 0; p < trace.n_players; ++p) {
    total_bits += static_cast<double>(session.network().bits_sent_by(p));
  }

  MeasuredBandwidth out;
  out.kbps_per_player =
      total_bits / seconds / static_cast<double>(trace.n_players) / 1000.0;
  out.bytes_per_player_s =
      total_bits / 8.0 / seconds / static_cast<double>(trace.n_players);

  std::uint64_t flushes = 0, flushed_messages = 0;
  for (PlayerId p = 0; p < trace.n_players; ++p) {
    const core::PeerMetrics& m = session.peer(p).metrics();
    flushes += m.flushes;
    flushed_messages += m.flushed_messages;
  }
  out.avg_batch_size = flushes > 0 ? static_cast<double>(flushed_messages) /
                                         static_cast<double>(flushes)
                                   : 1.0;

  if (opts.registry) {
    opts.registry->gauge("sim.upload_kbps_per_player").set(out.kbps_per_player);
    opts.registry->gauge("sim.measured_seconds").set(seconds);
  }
  return out;
}

double watchmen_measured_kbps(const game::GameTrace& trace,
                              const game::GameMap& map,
                              core::SessionOptions opts) {
  return watchmen_measured(trace, map, std::move(opts)).kbps_per_player;
}

}  // namespace watchmen::sim
