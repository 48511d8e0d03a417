#pragma once
// Explicit-state explorer for the wmcheck protocol model (DESIGN.md §5g).
//
// Breadth-first search over the transition system in core/protocol_model.hpp
// with FNV-1a hash dedup. BFS (rather than DFS) is deliberate: the first
// path that reaches a violating state is a shortest path, so the emitted
// counterexample is minimal in action count. Traces are reconstructed by
// replaying actions from the initial state — the visited set keeps only a
// hash and a parent edge per distinct state (one 24-byte slot of a flat
// open-addressing table), never a state copy; full states live only in the
// current and next BFS level. Visiting a state allocates nothing.

#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol_model.hpp"

namespace watchmen::core::model {

struct CheckLimits {
  std::uint64_t max_states = 2'000'000;  ///< dedup-distinct state cap
  std::uint64_t max_depth = 64;          ///< BFS depth (action count) cap
};

struct Counterexample {
  std::uint8_t violations = 0;  ///< flags of the violating state
  bool at_quiescence = false;   ///< violation found by the quiescence check
  std::vector<Action> actions;  ///< minimal action sequence from initial
  std::vector<std::string> trace;  ///< human-readable, one line per step
};

struct CheckResult {
  std::uint64_t states_explored = 0;  ///< distinct states visited
  std::uint64_t transitions = 0;      ///< apply() calls
  std::uint64_t quiescent_states = 0;
  std::uint64_t overflow_states = 0;  ///< model-bound hits (kMaxFlight)
  std::uint64_t max_depth_reached = 0;
  bool exhausted = false;  ///< frontier drained below both limits
  bool found_violation = false;
  Counterexample counterexample;  ///< valid iff found_violation
};

/// Exhaustively explores the model under `cfg` up to `limits`, stopping at
/// the first invariant violation (including quiescence-check failures).
CheckResult check(const ModelConfig& cfg, const CheckLimits& limits);

/// Re-runs a concrete action sequence from the initial state and renders the
/// trace; used for --replay and by the test corpus to validate
/// counterexamples independently of the explorer.
std::vector<std::string> render_trace(const ModelConfig& cfg,
                                      const std::vector<Action>& actions);

}  // namespace watchmen::core::model
