#pragma once
// Pure transition-system model of the proxy handoff / failover / rejoin
// protocol (ISSUE 7 tentpole, part b; DESIGN.md §5g).
//
// WatchmenPeer runs the protocol entangled with wire codecs, crypto and
// metrics; this header wraps just the *authority* state machine — who is
// allowed to act as one player's proxy, and when — as a pure function
// `apply(state, action) -> state` over a compact value-type state. Every
// acceptance and merge decision in it is a call into core/authority.hpp,
// the same rules WatchmenPeer calls, so tools/wmcheck exhaustively
// enumerates the shipped guards over every interleaving of
// message delivery, loss, duplication, proxy crash, rejoin and
// emergency-failover adoption up to a bounded budget, and assert the
// cheat-resistance invariants the point tests only sample:
//
//   I1  never two active proxies holding the same pool view (the schedule
//       is deterministic per view, so same-view dual authority means
//       authority was granted outside the schedule), and exactly one
//       active proxy at quiescence (diverged views must re-converge),
//   I2  no protocol message is accepted without a verifiable origin
//       signature,
//   I4  retransmit budgets terminate (a tracked control message is never
//       retransmitted more than retransmit_budget times),
//   I6  every node's pool view keeps protocol::kMinPoolMembers members (a
//       smaller view leaves its last member without a proxy), checked
//       after every transition.
//
// (I3, the proxy-only acceptance of anchored-delta baseline acks, retired
// with delta-coded state updates; the numbering stays. I5 is not modelled.)
//
// The model tracks a single subject player (node 0): per-player authority
// is independent in the implementation, so one subject with N-1 candidate
// proxies covers the protocol. The timing constants reach the model only
// through those rules, so a constant change re-verifies automatically.
//
// Deliberate abstractions (kept honest in DESIGN.md §5g):
//  * frames collapse to rounds (handoff grace spans one boundary), and
//    "silent here" / "alive here" are the crashed node's true state;
//  * the proxy schedule is round-robin over each node's live pool view —
//    like the seeded hash schedule it changes every round and is a pure
//    function of (player, round, pool);
//  * signatures are a boolean "verifiable origin chain" bit;
//  * state payloads are dropped — only authority/ack metadata remains.
//
// ModelConfig's `variant` mutates one call site each (failover without the
// vantage observation, unsigned acceptance, unbounded retransmit, an
// always-adopt handoff verdict, removals past the pool floor); the
// seeded-broken corpus
// in tests/wmcheck_test.cpp proves the checker catches every one.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/authority.hpp"

namespace watchmen::core::model {

/// Model sizes. kMaxNodes bounds the byte layout, not the configured n.
inline constexpr int kMaxNodes = 5;
inline constexpr int kMaxFlight = 16;
inline constexpr std::int8_t kNone = -1;

/// Seeded-broken protocol variants: each mutates one of the model's call
/// sites so a guard the real implementation has is gone, and the checker
/// must find a violation.
enum class Variant : std::uint8_t {
  kFaithful = 0,          ///< the protocol as implemented
  kSkipVantageCheck,      ///< authority::failover told the incumbent is
                          ///< silent (no PeerLink::proxy_silent observation)
  kAcceptUnsigned,        ///< receivers skip origin-signature verification
  kUnboundedRetransmit,   ///< reliable control ignores retransmit_budget
  kHandoffAnyRound,       ///< every handoff gets the kAdopt verdict
  kSkipPoolFloor,         ///< the boundary step is told the pool is large
                          ///< enough (binds at n_nodes = 3: a pool of two)
};

const char* to_string(Variant v);

struct ModelConfig {
  int n_nodes = 4;        ///< node 0 = subject player, 1..n-1 = proxy pool
  int max_rounds = 6;     ///< bounded horizon (schedule rotates each round)
  int loss_budget = 2;    ///< adversarial message drops
  int dup_budget = 1;     ///< adversarial message duplications
  int crash_budget = 1;   ///< proxy crashes (at most one, may rejoin)
  int rejoin_budget = 1;  ///< crashed proxy may come back
  int forge_budget = 1;   ///< unsigned injected messages
  int failover_budget = 1;
  /// Smaller than the shipped protocol::kRetransmitBudget (4) on purpose:
  /// I4 holds by construction for any budget, and at 4 the
  /// wmcheck_exhaustive space no longer exhausts inside its 20M-state cap
  /// (DESIGN.md §5g). tests/wmcheck_test.cpp pins both values.
  int retransmit_budget = 2;
  int failover_silence_rounds = 1;
  int settle_rounds = 2;  ///< fault-free rounds before quiescence asserts
  Variant variant = Variant::kFaithful;
};

enum class MsgKind : std::uint8_t {
  kHandoff = 0,
  kChurnNotice,
  kRejoinNotice,
  kStateUpdate,
  kControlAck,
};

const char* to_string(MsgKind k);

/// One in-flight message. `subject` is the node the message is about
/// (always 0 for handoffs/updates/acks; the churned node for notices).
struct Msg {
  MsgKind kind = MsgKind::kHandoff;
  std::int8_t from = kNone;
  std::int8_t to = kNone;
  std::int8_t subject = 0;
  std::int8_t stamp_round = 0;
  std::uint8_t is_signed = 1;

  /// Sort key: the fields in declaration order, signed ones biased so the
  /// packed order matches theirs.
  std::uint64_t key() const {
    const auto u = [](std::int8_t v) {
      return static_cast<std::uint64_t>(static_cast<std::uint8_t>(v) ^ 0x80u);
    };
    return static_cast<std::uint64_t>(kind) << 40 | u(from) << 32 |
           u(to) << 24 | u(subject) << 16 | u(stamp_round) << 8 | is_signed;
  }
  bool operator==(const Msg&) const = default;
};

/// Sticky violation flags (never cleared once set: BFS order then makes
/// the first counterexample minimal).
enum Violation : std::uint8_t {
  kViolationDualProxy = 1u << 0,       ///< I1: two live active proxies with
                                       ///< identical pool views
  kViolationUnsigned = 1u << 1,        ///< I2
  kViolationRetransmit = 1u << 3,      ///< I4
  kViolationNoProxy = 1u << 4,         ///< I1 at quiescence: zero proxies
  kViolationMultiProxyQuiescent = 1u << 5,  ///< I1 at quiescence: several
  kViolationPoolFloor = 1u << 6,       ///< I6: a pool view under the floor
};

std::string violations_to_string(std::uint8_t flags);

/// Compact value-type protocol state. One-byte members only, so its object
/// bytes are its canonical form (canonical_bytes) and apply() is a pure
/// function of (state, action).
struct State {
  std::int8_t round = 0;
  std::int8_t crashed_node = kNone;  ///< the one crash-budget node, if spent
  std::uint8_t rejoined = 0;         ///< crashed_node came back
  std::int8_t crash_round = kNone;
  std::uint8_t proxied = 0;  ///< bit i: node i actively proxies the subject
  std::array<std::uint8_t, kMaxNodes> pool_view{};  ///< per-node pool bitmask
  /// Node i's churn/rejoin agreement about crashed_node, the only node
  /// whose pool membership changes: the peer's authority::PoolRecord.
  std::array<authority::PoolRecord<std::int8_t>, kMaxNodes> agreement{};
  // Reliable-handoff tracking, per sending node.
  std::array<std::int8_t, kMaxNodes> pending_to{};
  std::array<std::int8_t, kMaxNodes> pending_stamp{};
  std::array<std::uint8_t, kMaxNodes> pending_retries{};
  // Spent adversarial budgets.
  std::uint8_t lost = 0, duped = 0, forged = 0, failovers = 0;
  std::int8_t rounds_since_fault = 0;  ///< capped at settle_rounds
  std::uint8_t violations = 0;
  /// Model bound hit (flight array full): excluded from the invariants and
  /// reported separately by wmcheck — a full flight must never silently
  /// masquerade as a message loss.
  std::uint8_t overflow = 0;
  std::uint8_t n_flight = 0;
  std::array<Msg, kMaxFlight> flight{};

  bool operator==(const State&) const = default;
};

enum class ActionKind : std::uint8_t {
  kAdvanceRound = 0,
  kDeliver,    ///< a = canonical flight index
  kDrop,       ///< a = canonical flight index
  kDuplicate,  ///< a = canonical flight index
  kCrash,      ///< a = node
  kRejoin,     ///< a = node
  kFailover,    ///< a = adopting successor node
  kForge,       ///< a = forged MsgKind, b = attacker node
  kRetransmit,  ///< a = node retransmitting its tracked handoff
};

struct Action {
  ActionKind kind = ActionKind::kAdvanceRound;
  std::int8_t a = 0;
  std::int8_t b = 0;
  bool operator==(const Action&) const = default;
};

/// Human-readable one-liner for counterexample traces, e.g.
/// "deliver Handoff 2->3 (stamp r1, signed)".
std::string describe(const Action& action, const State& before);

/// One-line state summary for counterexample traces.
std::string describe(const State& s, const ModelConfig& cfg);

/// The initial state: full pool, node proxy_of(round 0) already proxying.
State initial_state(const ModelConfig& cfg);

/// The subject's round-robin proxy schedule over a pool view: a pure
/// function of (round, pool), rotating every round like the seeded hash
/// schedule. Returns kNone for an empty pool.
std::int8_t proxy_of(std::int64_t round, std::uint8_t pool_mask);

/// Fills `out` with all actions enabled in `s` under `cfg`, in a
/// deterministic order (BFS over this order yields reproducible minimal
/// counterexamples). The explorer reuses one buffer across states.
void enabled_actions(const State& s, const ModelConfig& cfg,
                     std::vector<Action>& out);

/// Applies one action. Precondition: `action` came from enabled_actions(s).
/// Returns the canonicalized successor (flight sorted, caps applied) with
/// any violated invariant recorded in `violations`.
State apply(const State& s, const Action& action, const ModelConfig& cfg);

/// True when the state is quiescent-terminal: horizon reached, no message
/// in flight, and at least settle_rounds fault-free rounds. wmcheck runs
/// the quiescence invariant (exactly one live proxy) on these states.
bool quiescent(const State& s, const ModelConfig& cfg);

/// Quiescence invariant flags for a quiescent state (0 = holds).
std::uint8_t quiescence_violations(const State& s, const ModelConfig& cfg);

/// Canonical byte serialization: equal states produce equal bytes. apply()
/// keeps the flight sorted and zeroes its unused tail, so the object bytes
/// are canonical.
void canonical_bytes(const State& s, std::vector<std::uint8_t>& out);

/// 64-bit FNV-1a over canonical_bytes — the dedup key for the explorer.
std::uint64_t state_hash(const State& s);

}  // namespace watchmen::core::model
