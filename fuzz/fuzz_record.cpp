// Fuzz target: obs::Recording — the .wmrec flight-recorder format. A
// recording bundles session options, a cheat roster, a fault plan, the
// full game trace and the checkpoint event stream; replay trusts it for
// player ids, enum values and counts, and recordings come from disk, so
// they are adversarial input.
//
// Invariants checked:
//  * deserialize() throws DecodeError or returns a structurally valid
//    recording (arity-correct cheat params, every referenced player inside
//    the trace roster, positive checkpoint period, and nothing the session
//    would refuse: at least 2 players and 1 frame, positive renewal_frames,
//    no more compute threads than players);
//  * a returned recording survives serialize → deserialize byte-exactly.

#include <cstdint>
#include <cstdlib>
#include <span>

#include "obs/recorder.hpp"
#include "util/bytes.hpp"

using namespace watchmen;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  try {
    const obs::Recording rec = obs::Recording::deserialize(in);
    if (rec.checkpoint_period <= 0) std::abort();
    if (rec.trace.n_players < 2 || rec.trace.frames.empty()) std::abort();
    if (rec.options.watchmen.renewal_frames <= 0) std::abort();
    if (rec.options.compute_threads > rec.trace.n_players) std::abort();
    for (const obs::CheatSpec& c : rec.cheats) {
      if (c.params.size() != obs::roster_cheat_arity(c.kind)) std::abort();
      if (c.player >= rec.trace.n_players) std::abort();
    }
    for (const obs::RecEvent& e : rec.events) {
      if ((e.kind == obs::RecEventKind::kDisconnect ||
           e.kind == obs::RecEventKind::kReconnect) &&
          e.player >= rec.trace.n_players) {
        std::abort();
      }
    }
    const auto bytes = rec.serialize();
    const obs::Recording rt = obs::Recording::deserialize(bytes);
    if (rt.serialize() != bytes) std::abort();  // serialize is a fixed point
  } catch (const DecodeError&) {
    // Malformed input: the defined rejection path.
  }
  return 0;
}
