#pragma once
// Bandwidth accounting (paper §II-A and §VI): per-player upload for each
// architecture, both measured from the packet-level simulation (Watchmen)
// and from an analytic model parameterized by the set sizes observed in a
// real trace. Centralized Quake III is ~120·n kbps at the server; a naive
// P2P design grows quadratically in total.

#include <cstddef>

#include "core/session.hpp"
#include "game/trace.hpp"
#include "interest/sets.hpp"

namespace watchmen::sim {

/// Per-message wire sizes (bits, including UDP/IP overhead). The first
/// group prices the paper wire (fixed 21-byte header, f32 guidance), from
/// its layout; the second the shipped wire, from the encoders the peers use.
struct WireSizes {
  double state_update = 0.0;
  double position_update = 0.0;
  double guidance = 0.0;
  double subscribe = 0.0;
  /// State payload alone (no envelope) — the per-entity cost inside an
  /// aggregated client/server snapshot packet.
  double state_payload = 0.0;
  /// Header + UDP/IP without a signature — the per-packet cost of a
  /// trusted server's snapshot.
  double snapshot_overhead = 0.0;

  // Shipped wire format (batched datagrams, varint headers): steady-state
  // per-message costs. All include UDP/IP overhead like the fields above,
  // so the two generations are directly comparable; the batching model
  // subtracts the overhead back out when amortizing it across a datagram.
  double state_update_c = 0.0;   ///< full state update, compact header
  double guidance_q = 0.0;       ///< quantized varint guidance body
  double subscriber_diff = 0.0;  ///< one-add/one-remove subscriber diff
  double position_update_c = 0.0;  ///< position beacon, compact header
  double subscribe_c = 0.0;        ///< subscribe, compact header
  /// Per-sub-message framing inside a kBatch container (length varint).
  double batch_frame_bits = 0.0;
  /// Per-datagram container cost (kBatch byte + count varint).
  double batch_container_bits = 0.0;

  static WireSizes measure();
};

/// Interest-set statistics from a trace. IS is capped by design; VS and PVS
/// scale with player density, so we keep them as fractions of (n-1) for
/// extrapolation to other player counts.
struct SetSizeStats {
  double avg_is = 0.0;        ///< average IS size (<= 5)
  double vs_fraction = 0.0;   ///< average |VS| / (n-1)
  double pvs_fraction = 0.0;  ///< average PVS visibility fraction
};

SetSizeStats measure_set_sizes(const game::GameTrace& trace,
                               const game::GameMap& map,
                               const interest::InterestConfig& cfg,
                               std::size_t stride = 20);

/// Analytic per-player upload (kbps) under each architecture, at `n`
/// players, extrapolating the trace-measured set sizes.
double watchmen_upload_kbps(std::size_t n, const SetSizeStats& s,
                            const WireSizes& w);
/// Knobs of the overhauled wire the v2 model is parameterized by, all
/// measured or configured rather than assumed.
struct WireV2Params {
  /// Mean messages per datagram (amortizes UDP/IP overhead; 1 = no batching).
  double avg_batch = 1.0;
  /// WatchmenConfig::other_update_budget — cap on Other-set receivers per
  /// forwarded beacon (0 = unlimited, the O(n) seed behaviour).
  double other_budget = 0.0;
  /// Absolute cap on the vision-set size (players actually visible on a
  /// fixed-size map saturate with density; measured from the densest
  /// packet-level trace). 0 = extrapolate vs_fraction linearly.
  double vs_cap = 0.0;
};

/// Watchmen with the overhauled wire format: guidance is quantized,
/// subscription pushes are diffs, envelopes use compact headers, per-link
/// messages share datagrams, and the Other-set beacon fan-out is budgeted
/// (the term that must be bounded for flat upload at 512-1024 players).
/// Frequent updates stay full states, as on the paper wire.
double watchmen_upload_kbps_v2(std::size_t n, const SetSizeStats& s,
                               const WireSizes& w, const WireV2Params& p);
double donnybrook_upload_kbps(std::size_t n, const SetSizeStats& s,
                              const WireSizes& w);
double naive_p2p_upload_kbps(std::size_t n, const WireSizes& w);
/// Client/server: the *server's* upload (players upload only their inputs).
double client_server_server_kbps(std::size_t n, const SetSizeStats& s,
                                 const WireSizes& w);

/// Packet-level measurement of a full Watchmen session over the trace.
struct MeasuredBandwidth {
  double kbps_per_player = 0.0;
  double bytes_per_player_s = 0.0;
  /// Mean messages per per-link flush (1.0 when the session sent nothing).
  double avg_batch_size = 1.0;
};

MeasuredBandwidth watchmen_measured(const game::GameTrace& trace,
                                    const game::GameMap& map,
                                    core::SessionOptions opts);

/// Measured average per-player upload (kbps) from a full packet-level
/// Watchmen session over the trace.
double watchmen_measured_kbps(const game::GameTrace& trace,
                              const game::GameMap& map,
                              core::SessionOptions opts);

}  // namespace watchmen::sim
