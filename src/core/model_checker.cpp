#include "core/model_checker.hpp"

#include <algorithm>
#include <utility>

namespace watchmen::core::model {

namespace {

/// Visited set: state hash -> the edge it was first reached by. Open
/// addressing in one flat table, doubled at 7/8 load, so visiting a state
/// allocates nothing. Hash 0 marks an empty slot; a state hashing to 0 is
/// stored as 1, one more 64-bit collision like any other.
class Visited {
 public:
  struct Slot {
    std::uint64_t hash = 0;  ///< 0 = empty
    std::uint64_t parent = 0;
    Action action;
  };

  /// Records `h` reached from `parent` by `action`; false if already seen.
  bool insert(std::uint64_t h, std::uint64_t parent, const Action& action) {
    if ((size_ + 1) * 8 > slots_.size() * 7) grow();
    Slot& slot = slots_[probe(h == 0 ? 1 : h)];
    if (slot.hash != 0) return false;
    slot = {h == 0 ? 1 : h, parent, action};
    ++size_;
    return true;
  }
  /// The edge `h` was first reached by, or nullptr.
  const Slot* find(std::uint64_t h) const {
    const Slot& slot = slots_[probe(h == 0 ? 1 : h)];
    return slot.hash != 0 ? &slot : nullptr;
  }

 private:
  /// Index of `h`'s slot, or of the empty slot where it belongs.
  std::size_t probe(std::uint64_t h) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (h * 0x9E3779B97F4A7C15ULL) >> 20 & mask;
    while (slots_[i].hash != 0 && slots_[i].hash != h) i = (i + 1) & mask;
    return i;
  }
  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(slots_.size() * 2, 1 << 20));
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.hash != 0) slots_[probe(slot.hash)] = slot;
    }
  }
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

std::vector<Action> reconstruct(const Visited& visited,
                                std::uint64_t initial_hash,
                                std::uint64_t violating_hash) {
  std::vector<Action> actions;
  std::uint64_t h = violating_hash;
  while (h != initial_hash) {
    const auto* edge = visited.find(h);
    if (!edge) break;  // unreachable if bookkeeping is sound
    actions.push_back(edge->action);
    h = edge->parent;
  }
  std::reverse(actions.begin(), actions.end());
  return actions;
}

Counterexample make_counterexample(const ModelConfig& cfg,
                                   std::vector<Action> actions,
                                   std::uint8_t violations,
                                   bool at_quiescence) {
  Counterexample ce;
  ce.violations = violations;
  ce.at_quiescence = at_quiescence;
  ce.trace = render_trace(cfg, actions);
  ce.actions = std::move(actions);
  if (at_quiescence) {
    ce.trace.push_back("  [quiescence check] " + violations_to_string(violations));
  }
  return ce;
}

}  // namespace

CheckResult check(const ModelConfig& cfg, const CheckLimits& limits) {
  CheckResult res;

  const State init = initial_state(cfg);
  const std::uint64_t init_hash = state_hash(init);

  // hash -> how we first reached it (BFS order => shortest action path).
  Visited visited;
  visited.insert(init_hash, init_hash, Action{});  // sentinel self-edge

  std::vector<std::pair<State, std::uint64_t>> level;
  level.emplace_back(init, init_hash);
  res.states_explored = 1;

  const auto note_state = [&res, &cfg](const State& s) -> bool {
    // Returns true (stop) when s violates an invariant.
    if (s.overflow != 0) ++res.overflow_states;
    if (s.violations != 0) return true;
    if (quiescent(s, cfg)) {
      ++res.quiescent_states;
      if (quiescence_violations(s, cfg) != 0) return true;
    }
    return false;
  };

  if (note_state(init)) {
    res.found_violation = true;
    res.counterexample = make_counterexample(
        cfg, {}, init.violations ? init.violations : quiescence_violations(init, cfg),
        init.violations == 0);
    return res;
  }

  std::vector<std::pair<State, std::uint64_t>> next;
  std::vector<Action> actions;  // reused: no allocation per state
  for (std::uint64_t depth = 0; !level.empty() && depth < limits.max_depth;
       ++depth) {
    next.clear();
    for (const auto& [s, h] : level) {
      enabled_actions(s, cfg, actions);
      for (const Action& a : actions) {
        State succ = apply(s, a, cfg);
        ++res.transitions;
        const std::uint64_t sh = state_hash(succ);
        if (!visited.insert(sh, h, a)) continue;  // seen via a shorter path
        ++res.states_explored;
        res.max_depth_reached = std::max<std::uint64_t>(res.max_depth_reached,
                                                        depth + 1);
        if (note_state(succ)) {
          res.found_violation = true;
          const bool at_q = succ.violations == 0;
          const std::uint8_t flags =
              at_q ? quiescence_violations(succ, cfg) : succ.violations;
          res.counterexample = make_counterexample(
              cfg, reconstruct(visited, init_hash, sh), flags, at_q);
          return res;
        }
        if (res.states_explored >= limits.max_states) {
          return res;  // budget hit, not exhausted
        }
        next.emplace_back(std::move(succ), sh);
      }
    }
    level.swap(next);
  }
  res.exhausted = level.empty();
  return res;
}

std::vector<std::string> render_trace(const ModelConfig& cfg,
                                      const std::vector<Action>& actions) {
  std::vector<std::string> lines;
  State s = initial_state(cfg);
  lines.push_back("  [init]  " + describe(s, cfg));
  int step = 1;
  for (const Action& a : actions) {
    const std::string what = describe(a, s);
    s = apply(s, a, cfg);
    lines.push_back("  [" + std::to_string(step++) + "] " + what + "  =>  " +
                    describe(s, cfg));
  }
  return lines;
}

}  // namespace watchmen::core::model
