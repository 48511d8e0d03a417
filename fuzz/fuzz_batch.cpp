// Fuzz target: the kBatch per-link container — the one wire format that is
// *not* a sealed envelope, so its framing is parsed before any signature
// check and must reject garbage on its own. The decoder fuzzed here is the
// one peers run on every datagram (decode_batch_prefix).
//
// Invariants checked:
//  * decode_batch_prefix() returns sub-wire views and a completeness flag,
//    never anything else;
//  * a complete decode re-encodes into a container that decodes back,
//    complete, to the same sub-wires (byte identity is too strict: the
//    reader accepts non-minimal varints that the writer canonicalizes);
//  * every decoded sub-wire either opens as a sealed envelope or is
//    rejected by the envelope parser — never anything undefined;
//  * a strict truncation of a valid re-encode is reported incomplete and
//    yields a prefix of its sub-wires;
//  * single-bit flips of a valid re-encode never crash.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/messages.hpp"
#include "util/bytes.hpp"

using namespace watchmen;
using namespace watchmen::core;

namespace {

bool same_wire(std::span<const std::uint8_t> a,
               const std::vector<std::uint8_t>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  const BatchPrefix decoded = decode_batch_prefix(in);
  std::vector<std::vector<std::uint8_t>> subs;
  for (const auto sub : decoded.wires) {
    // Sub-wires must be safe to hand to the envelope parser as-is.
    (void)open_unverified(sub);
    subs.emplace_back(sub.begin(), sub.end());
  }
  if (!decoded.complete) return 0;  // malformed container: its prefix only

  // Round trip: the canonical re-encode must decode to the same sub-wires.
  const std::vector<std::uint8_t> re = encode_batch(subs);
  const BatchPrefix again = decode_batch_prefix(re);
  if (!again.complete || again.wires.size() != subs.size()) std::abort();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (!same_wire(again.wires[i], subs[i])) std::abort();
  }

  // Strict truncations of a valid container lose their tail, nothing else.
  for (const std::size_t cut : {re.size() / 2, re.size() - 1}) {
    const BatchPrefix part = decode_batch_prefix(std::span(re.data(), cut));
    if (part.complete || part.wires.size() > subs.size()) std::abort();
    for (std::size_t i = 0; i < part.wires.size(); ++i) {
      if (!same_wire(part.wires[i], subs[i])) std::abort();
    }
  }

  // Single-bit corruption, at a position derived from the input itself so
  // the sweep stays deterministic per input.
  std::vector<std::uint8_t> flipped = re;
  flipped[re.size() / 3] ^= static_cast<std::uint8_t>(1u << (re.size() % 8));
  for (const auto sub : decode_batch_prefix(flipped).wires) {
    (void)open_unverified(sub);
  }
  return 0;
}
