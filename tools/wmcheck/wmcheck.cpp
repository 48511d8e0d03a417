// wmcheck — exhaustive explicit-state model checker for the Watchmen proxy
// handoff / failover / rejoin protocol (DESIGN.md §5g).
//
// Enumerates every interleaving of message delivery, loss, duplication,
// proxy crash, rejoin, retransmission and emergency-failover adoption up to
// the configured adversarial budgets, deduplicating states by canonical
// hash, and asserts the cheat-resistance invariants (exactly one active
// proxy, signed-origin acceptance only, bounded retransmission, a pool
// view never under the floor). On
// violation it prints a minimal counterexample trace
// plus a machine-readable action list replayable with --replay.
//
// Exit codes: 0 = expectations met, 1 = invariant violated (or, with
// --expect-violation, NOT violated), 2 = usage / limits not reached / a
// replay list that does not fit the model.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_checker.hpp"
#include "core/protocol_model.hpp"

namespace {

using namespace watchmen::core::model;

constexpr Variant kAllVariants[] = {
    Variant::kFaithful,       Variant::kSkipVantageCheck,
    Variant::kAcceptUnsigned, Variant::kUnboundedRetransmit,
    Variant::kHandoffAnyRound, Variant::kSkipPoolFloor,
};

void usage() {
  std::fprintf(stderr,
               "usage: wmcheck [options]\n"
               "  --variant NAME        protocol variant to check"
               " (default: faithful)\n"
               "  --list-variants       print variant names and exit\n"
               "  --nodes N             pool size incl. subject (default 4)\n"
               "  --rounds N            round horizon (default 6)\n"
               "  --loss N --dup N --crash N --rejoin N --forge N\n"
               "  --failover N          adversarial budgets (see ModelConfig)\n"
               "  --max-states N        distinct-state budget (default 2e6)\n"
               "  --max-depth N         BFS depth cap (default 64)\n"
               "  --min-states N        fail (exit 2) if fewer distinct"
               " states explored\n"
               "  --expect-violation    exit 0 iff a violation IS found\n"
               "  --replay FILE         replay an action list instead of"
               " exploring\n"
               "  --quiet               suppress the stats summary\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

/// Replays an action list, one `kind a b` line per action. The list is
/// checked before it runs: a kind past kRetransmit, an operand outside
/// int8 or an action the model does not offer at that step (a list from an
/// older model, or a hand edit) is rejected with its line number, since a
/// cast would silently replay a different run.
int replay(const ModelConfig& cfg, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "wmcheck: cannot open replay file %s\n", path.c_str());
    return 2;
  }
  std::vector<Action> actions;
  std::vector<Action> enabled;
  State s = initial_state(cfg);
  std::string line;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    const auto reject = [&](const char* why) {
      std::fprintf(stderr, "wmcheck: %s:%d: %s: %s\n", path.c_str(), line_no,
                   why, line.c_str());
      return 2;
    };
    std::istringstream ls(line);
    int kind = 0, a = 0, b = 0;
    if (!(ls >> kind >> a >> b)) return reject("bad replay line");
    if (kind < 0 || kind > static_cast<int>(ActionKind::kRetransmit)) {
      return reject("unknown action kind");
    }
    if (a < INT8_MIN || a > INT8_MAX || b < INT8_MIN || b > INT8_MAX) {
      return reject("operand outside int8");
    }
    const Action action{static_cast<ActionKind>(kind),
                        static_cast<std::int8_t>(a),
                        static_cast<std::int8_t>(b)};
    enabled_actions(s, cfg, enabled);
    if (std::find(enabled.begin(), enabled.end(), action) == enabled.end()) {
      return reject("action not enabled at this step");
    }
    s = apply(s, action, cfg);
    actions.push_back(action);
  }
  for (const std::string& l : render_trace(cfg, actions)) {
    std::printf("%s\n", l.c_str());
  }
  // Report the final verdict of the replayed run.
  if (s.violations != 0) {
    std::printf("replay: VIOLATION %s\n",
                violations_to_string(s.violations).c_str());
    return 1;
  }
  std::printf("replay: no violation\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ModelConfig cfg;
  CheckLimits limits;
  std::uint64_t min_states = 0;
  bool expect_violation = false;
  bool quiet = false;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list-variants") {
      for (const Variant v : kAllVariants) std::printf("%s\n", to_string(v));
      return 0;
    } else if (arg == "--variant") {
      const char* name = next();
      bool found = false;
      for (const Variant v : kAllVariants) {
        if (name && std::strcmp(name, to_string(v)) == 0) {
          cfg.variant = v;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "wmcheck: unknown variant %s\n",
                     name ? name : "(missing)");
        return 2;
      }
    } else if (arg == "--nodes" || arg == "--rounds") {
      const char* val = next();
      std::uint64_t v = 0;
      if (!val || !parse_u64(val, v) || v == 0 ||
          (arg == "--nodes" && v > static_cast<std::uint64_t>(kMaxNodes))) {
        usage();
        return 2;
      }
      (arg == "--nodes" ? cfg.n_nodes : cfg.max_rounds) = static_cast<int>(v);
    } else if (arg == "--loss" || arg == "--dup" || arg == "--crash" ||
               arg == "--rejoin" || arg == "--forge" ||
               arg == "--failover") {
      const char* val = next();
      std::uint64_t v = 0;
      if (!val || !parse_u64(val, v)) {
        usage();
        return 2;
      }
      int* slot = arg == "--loss"     ? &cfg.loss_budget
                  : arg == "--dup"    ? &cfg.dup_budget
                  : arg == "--crash"  ? &cfg.crash_budget
                  : arg == "--rejoin" ? &cfg.rejoin_budget
                  : arg == "--forge"  ? &cfg.forge_budget
                                      : &cfg.failover_budget;
      *slot = static_cast<int>(v);
    } else if (arg == "--max-states" || arg == "--max-depth" ||
               arg == "--min-states") {
      const char* val = next();
      std::uint64_t v = 0;
      if (!val || !parse_u64(val, v)) {
        usage();
        return 2;
      }
      if (arg == "--max-states") limits.max_states = v;
      else if (arg == "--max-depth") limits.max_depth = v;
      else min_states = v;
    } else if (arg == "--expect-violation") {
      expect_violation = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--replay") {
      const char* val = next();
      if (!val) {
        usage();
        return 2;
      }
      replay_path = val;
    } else {
      usage();
      return 2;
    }
  }

  if (!replay_path.empty()) return replay(cfg, replay_path);

  const CheckResult res = check(cfg, limits);

  if (!quiet) {
    std::printf("wmcheck: variant=%s nodes=%d rounds=%d\n",
                to_string(cfg.variant), cfg.n_nodes, cfg.max_rounds);
    std::printf(
        "  states=%llu transitions=%llu quiescent=%llu depth=%llu "
        "overflow=%llu exhausted=%s\n",
        static_cast<unsigned long long>(res.states_explored),
        static_cast<unsigned long long>(res.transitions),
        static_cast<unsigned long long>(res.quiescent_states),
        static_cast<unsigned long long>(res.max_depth_reached),
        static_cast<unsigned long long>(res.overflow_states),
        res.exhausted ? "yes" : "no");
  }

  if (res.found_violation) {
    std::printf("wmcheck: VIOLATION %s%s\n",
                violations_to_string(res.counterexample.violations).c_str(),
                res.counterexample.at_quiescence ? " (at quiescence)" : "");
    std::printf("counterexample (%zu actions, minimal):\n",
                res.counterexample.actions.size());
    for (const std::string& l : res.counterexample.trace) {
      std::printf("%s\n", l.c_str());
    }
    std::printf("replayable action list (wmcheck --replay):\n");
    for (const Action& a : res.counterexample.actions) {
      std::printf("%d %d %d\n", static_cast<int>(a.kind), a.a, a.b);
    }
    return expect_violation ? 0 : 1;
  }

  if (expect_violation) {
    std::fprintf(stderr,
                 "wmcheck: expected a violation for variant %s but the "
                 "explorer found none (states=%llu, exhausted=%s)\n",
                 to_string(cfg.variant),
                 static_cast<unsigned long long>(res.states_explored),
                 res.exhausted ? "yes" : "no");
    return 1;
  }
  if (min_states != 0 && res.states_explored < min_states) {
    std::fprintf(stderr,
                 "wmcheck: explored %llu distinct states, below the required "
                 "%llu — the model or budgets shrank; this run proves less "
                 "than CI demands\n",
                 static_cast<unsigned long long>(res.states_explored),
                 static_cast<unsigned long long>(min_states));
    return 2;
  }
  if (!quiet) std::printf("wmcheck: all invariants hold\n");
  return 0;
}
