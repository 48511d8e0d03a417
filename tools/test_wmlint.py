#!/usr/bin/env python3
"""Unit tests for wmlint.py (stdlib unittest — run directly or via ctest)."""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import wmlint  # noqa: E402


def lint_tree(files: dict) -> list:
    """Writes {relpath: content} into a temp repo and lints every file."""
    with tempfile.TemporaryDirectory() as td:
        root = Path(td)
        findings = []
        for rel, content in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content)
        for rel in files:
            findings += wmlint.lint_file(root / rel, root)
        return findings


def checks(findings):
    return sorted(f.check for f in findings)


class RawRandomTest(unittest.TestCase):
    def test_flags_rand_in_src(self):
        fs = lint_tree({"src/game/x.cpp": "int f() { return rand(); }\n"})
        self.assertIn("raw-random", checks(fs))

    def test_flags_random_device_and_wall_clock(self):
        fs = lint_tree({"src/game/x.cpp":
                        "std::random_device rd;\n"
                        "auto t = std::chrono::steady_clock::now();\n"})
        self.assertEqual(checks(fs).count("raw-random"), 2)

    def test_rng_hpp_is_exempt(self):
        fs = lint_tree({"src/util/rng.hpp":
                        "#pragma once\nint seed_from(std::random_device& r);\n"})
        self.assertEqual(fs, [])

    def test_member_clock_call_not_flagged(self):
        fs = lint_tree({"src/net/x.cpp":
                        "Frame f() { return net_->clock().frame(); }\n"})
        self.assertEqual(fs, [])

    def test_libc_clock_flagged(self):
        fs = lint_tree({"src/net/x.cpp": "double t = clock();\n"})
        self.assertIn("raw-random", checks(fs))

    def test_allow_annotation(self):
        fs = lint_tree({"src/game/x.cpp":
                        "// wmlint: allow(raw-random)\n"
                        "int f() { return rand(); }\n"})
        self.assertEqual(fs, [])

    def test_outside_src_not_flagged(self):
        fs = lint_tree({"bench/x.cpp": "int f() { return rand(); }\n"})
        self.assertEqual(fs, [])

    def test_strand_not_flagged(self):
        fs = lint_tree({"src/net/x.cpp": "io.strand(queue);\n"})
        self.assertEqual(fs, [])


class WireOrderTest(unittest.TestCase):
    def test_flags_unsorted_iteration(self):
        fs = lint_tree({"src/core/x.cpp":
                        "std::unordered_map<int, int> subs_;\n"
                        "void f() {\n"
                        "  for (const auto& [k, v] : subs_) send(k);\n"
                        "}\n"})
        self.assertIn("wire-order", checks(fs))

    def test_sort_after_loop_is_exempt(self):
        fs = lint_tree({"src/core/x.cpp":
                        "std::unordered_map<int, int> subs_;\n"
                        "std::vector<int> f() {\n"
                        "  std::vector<int> out;\n"
                        "  for (const auto& [k, v] : subs_) out.push_back(k);\n"
                        "  std::sort(out.begin(), out.end());\n"
                        "  return out;\n"
                        "}\n"})
        self.assertEqual(fs, [])

    def test_member_declared_in_companion_header(self):
        fs = lint_tree({
            "src/core/x.hpp": "#pragma once\n"
                              "std::unordered_map<int, int> proxied_;\n",
            "src/core/x.cpp": '#include "core/x.hpp"\n'
                              "void f() {\n"
                              "  for (auto& [q, ps] : proxied_) send(q);\n"
                              "}\n"})
        self.assertIn("wire-order", checks(fs))

    def test_ordered_map_not_flagged(self):
        fs = lint_tree({"src/core/x.cpp":
                        "std::map<int, int> subs_;\n"
                        "void f() { for (auto& [k, v] : subs_) send(k); }\n"})
        self.assertEqual(fs, [])

    def test_allow_annotation(self):
        fs = lint_tree({"src/core/x.cpp":
                        "std::unordered_map<int, int> subs_;\n"
                        "void f() {\n"
                        "  // per-element work is order independent\n"
                        "  // wmlint: allow(wire-order)\n"
                        "  for (auto& [k, v] : subs_) bump(v);\n"
                        "}\n"})
        self.assertEqual(fs, [])


class DecoderAbortTest(unittest.TestCase):
    def test_flags_assert_in_decoder(self):
        fs = lint_tree({"src/core/x.cpp":
                        "int decode_thing(Span b) {\n"
                        "  assert(b.size() > 4);\n"
                        "  return 0;\n"
                        "}\n"})
        self.assertIn("decoder-abort", checks(fs))

    def test_flags_abort_and_logic_error(self):
        fs = lint_tree({"src/core/x.cpp":
                        "Msg read_header(Reader& r) {\n"
                        "  if (r.done()) abort();\n"
                        "  if (bad) throw std::logic_error(\"x\");\n"
                        "  return m;\n"
                        "}\n"})
        self.assertEqual(checks(fs).count("decoder-abort"), 2)

    def test_decode_error_is_fine(self):
        fs = lint_tree({"src/core/x.cpp":
                        "int decode_thing(Span b) {\n"
                        "  if (b.empty()) throw DecodeError(\"empty\");\n"
                        "  return b[0];\n"
                        "}\n"})
        self.assertEqual(fs, [])

    def test_assert_outside_decoder_not_flagged(self):
        fs = lint_tree({"src/core/x.cpp":
                        "void step_world(World& w) {\n"
                        "  assert(w.ok());\n"
                        "}\n"})
        self.assertEqual(fs, [])

    def test_static_assert_not_flagged(self):
        fs = lint_tree({"src/core/x.cpp":
                        "int decode_thing(Span b) {\n"
                        "  static_assert(sizeof(int) == 4);\n"
                        "  return 0;\n"
                        "}\n"})
        self.assertEqual(fs, [])


class MutexGuardedTest(unittest.TestCase):
    def test_unguarded_mutex_flagged(self):
        fs = lint_tree({"src/net/x.hpp":
                        "#pragma once\n"
                        "class X {\n"
                        "  mutable util::Mutex mu_;\n"
                        "  int count_ = 0;\n"
                        "};\n"})
        self.assertIn("mutex-guarded", checks(fs))
        self.assertIn("mu_", [f.msg for f in fs if f.check == "mutex-guarded"][0])

    def test_guarded_mutex_clean(self):
        fs = lint_tree({"src/net/x.hpp":
                        "#pragma once\n"
                        "class X {\n"
                        "  mutable util::Mutex mu_;\n"
                        "  int count_ GUARDED_BY(mu_) = 0;\n"
                        "};\n"})
        self.assertEqual(fs, [])

    def test_raw_std_mutex_flagged(self):
        fs = lint_tree({"src/core/y.hpp":
                        "#pragma once\nstd::mutex lock_;\n"})
        self.assertIn("mutex-guarded", checks(fs))

    def test_guard_must_name_this_mutex(self):
        fs = lint_tree({"src/core/y.hpp":
                        "#pragma once\n"
                        "std::mutex a_;\nstd::mutex b_;\n"
                        "int x_ GUARDED_BY(a_) = 0;\n"})
        self.assertEqual(checks(fs), ["mutex-guarded"])
        self.assertIn("b_", fs[0].msg)

    def test_pt_guarded_by_counts(self):
        fs = lint_tree({"src/core/y.hpp":
                        "#pragma once\n"
                        "std::mutex mu_;\n"
                        "int* p_ PT_GUARDED_BY(mu_) = nullptr;\n"})
        self.assertEqual(fs, [])

    def test_reference_member_not_flagged(self):
        # Lock-holder classes store `Mutex&` — not a mutex declaration.
        fs = lint_tree({"src/util/x.hpp":
                        "#pragma once\nclass L { Mutex& mu_; };\n"})
        self.assertEqual(fs, [])

    def test_allow_annotation(self):
        fs = lint_tree({"src/net/x.hpp":
                        "#pragma once\n"
                        "// held only in ctor  // wmlint: allow(mutex-guarded)\n"
                        "std::mutex init_mu_;\n"})
        self.assertEqual(fs, [])

    def test_outside_src_not_flagged(self):
        fs = lint_tree({"tests/x.cpp": "std::mutex mu_;\n"})
        self.assertEqual(fs, [])


class TransportFactoryTest(unittest.TestCase):
    def test_direct_construction_flagged(self):
        fs = lint_tree({"bench/x.cpp":
                        "net::SimNetwork net(16, lat(), 0.0, 1);\n"})
        self.assertIn("transport-factory", checks(fs))

    def test_make_unique_flagged(self):
        fs = lint_tree({"src/core/x.cpp":
                        "auto n = std::make_unique<net::SimNetwork>(4);\n"})
        self.assertIn("transport-factory", checks(fs))

    def test_new_expression_flagged(self):
        fs = lint_tree({"examples/x.cpp":
                        "auto* n = new net::SimNetwork(4, lat(), 0.0, 1);\n"})
        self.assertIn("transport-factory", checks(fs))

    def test_factory_call_clean(self):
        fs = lint_tree({"bench/x.cpp":
                        "auto net = net::make_transport(std::move(tc));\n"})
        self.assertEqual(fs, [])

    def test_net_layer_is_exempt(self):
        fs = lint_tree({"src/net/transport.cpp":
                        "return std::make_unique<SimNetwork>(n, std::move(l),"
                        " r, s);\n"})
        self.assertEqual(checks(fs), [])

    def test_tests_are_exempt(self):
        fs = lint_tree({"tests/x.cpp":
                        "SimNetwork net(4, lat(), 0.0, 1);\n"})
        self.assertEqual(fs, [])

    def test_comment_mention_clean(self):
        fs = lint_tree({"src/core/x.cpp":
                        "// mirrors SimNetwork (net/network.hpp) exactly\n"
                        "int x = 0;\n"})
        self.assertEqual(fs, [])

    def test_reference_type_clean(self):
        fs = lint_tree({"src/core/x.cpp":
                        "void wire(net::SimNetwork& net);\n"})
        self.assertEqual(fs, [])

    def test_allow_annotation(self):
        fs = lint_tree({"bench/x.cpp":
                        "// wmlint: allow(transport-factory)\n"
                        "net::SimNetwork net(16, lat(), 0.0, 1);\n"})
        self.assertEqual(fs, [])


class LinkSwitchTest(unittest.TestCase):
    def test_reads_outside_the_link_flagged(self):
        fs = lint_tree({"src/core/peer.cpp":
                        "if (cfg_.hardened) flush();\n"
                        "bool w = o.watchmen.hardened == true;\n"
                        "const bool h = cfg->hardened;\n"})
        self.assertEqual(checks(fs), ["link-switch"] * 3)

    def test_the_link_and_the_codec_are_exempt(self):
        fs = lint_tree({"src/core/peer_link.cpp":
                        "hardened_(cfg.hardened),\n",
                        "src/obs/recorder.cpp":
                        "put_bool(w, c.hardened);\n",
                        "tests/x.cpp": "if (cfg.hardened) {}\n"})
        self.assertEqual(fs, [])

    def test_assignment_declaration_and_comment_clean(self):
        fs = lint_tree({"src/core/x.cpp":
                        "cfg.hardened = true;\n"
                        "  bool hardened = false;\n"
                        "// with cfg_.hardened on, acks flow\n"})
        self.assertEqual(fs, [])

    def test_the_annotated_tolerance_pick_is_clean(self):
        fs = lint_tree({"src/core/peer.cpp":
                        "      // wmlint: allow(link-switch) the profile picks "
                        "the check tolerances\n"
                        "      tol_(cfg_.hardened ? kHardenedTolerance : "
                        "kPaperTolerance),\n"})
        self.assertEqual(fs, [])


class AuthorityRuleTest(unittest.TestCase):
    def test_reads_outside_authority_flagged(self):
        # The reads the peer and the wmcheck model made before core/
        # authority.hpp owned the rules.
        fs = lint_tree({
            "src/core/peer.cpp":
            "    const std::int64_t restore = r + protocol::kRejoinRestoreDelayRounds;\n"
            "    const std::int64_t removal = r + protocol::kChurnRemovalDelayRounds;\n"
            "  return round_ - last_pool_change_round_ <=\n"
            "         protocol::kPoolTransitionGraceRounds;\n"
            "    if (stamp_round + protocol::kHandoffStaleRounds < now_round) return;\n",
            "src/core/protocol_model.cpp":
            "        if (m.stamp_round + protocol::kHandoffStaleRounds < s.round) return;\n"
            "            m.stamp_round + protocol::kChurnRemovalDelayRounds);\n"})
        self.assertEqual(checks(fs), ["authority-rule"] * 6)

    def test_owner_definitions_tests_and_comments_clean(self):
        fs = lint_tree({
            "src/core/authority.hpp":
            "#pragma once\n"
            "  return round + protocol::kChurnRemovalDelayRounds;\n",
            "src/core/protocol_params.hpp":
            "#pragma once\n"
            "inline constexpr std::int64_t kHandoffStaleRounds = 1;\n",
            "src/core/peer.cpp":
            "// removal at r + kChurnRemovalDelayRounds\n",
            "tests/wmcheck_test.cpp":
            "EXPECT_EQ(x, protocol::kRejoinRestoreDelayRounds);\n"})
        self.assertEqual(fs, [])

    def test_pool_floor_read_outside_authority_flagged(self):
        # The pool floor is one rule: a caller counting members against the
        # constant itself is a second copy of it.
        fs = lint_tree({"src/core/session.cpp":
                        "    if (eligible <= protocol::kMinPoolMembers) continue;\n"})
        self.assertEqual(checks(fs), ["authority-rule"])

    def test_comparison_is_a_read(self):
        fs = lint_tree({"src/core/x.cpp":
                        "bool b = kHandoffStaleRounds == 1;\n"})
        self.assertEqual(checks(fs), ["authority-rule"])

    def test_allow_annotation(self):
        fs = lint_tree({"src/core/x.cpp":
                        "// wmlint: allow(authority-rule)\n"
                        "auto g = protocol::kPoolTransitionGraceRounds;\n"})
        self.assertEqual(fs, [])


class IncludeHygieneTest(unittest.TestCase):
    def test_missing_pragma_once(self):
        fs = lint_tree({"src/util/x.hpp": "#include <vector>\n"})
        self.assertIn("include-hygiene", checks(fs))

    def test_pragma_once_after_comment_ok(self):
        fs = lint_tree({"src/util/x.hpp":
                        "// A header comment.\n#pragma once\n"})
        self.assertEqual(fs, [])

    def test_dotdot_include(self):
        fs = lint_tree({"src/util/x.cpp": '#include "../game/map.hpp"\n'})
        self.assertIn("include-hygiene", checks(fs))

    def test_own_header_first(self):
        fs = lint_tree({
            "src/game/map.hpp": "#pragma once\n",
            "src/game/map.cpp": '#include "util/vec.hpp"\n'
                                '#include "game/map.hpp"\n'})
        self.assertIn("include-hygiene", checks(fs))

    def test_own_header_first_satisfied(self):
        fs = lint_tree({
            "src/game/map.hpp": "#pragma once\n",
            "src/game/map.cpp": '#include "game/map.hpp"\n'
                                '#include "util/vec.hpp"\n'})
        self.assertEqual(fs, [])


class WhitespaceTest(unittest.TestCase):
    def test_tab_and_trailing(self):
        fs = lint_tree({"src/util/x.cpp": "int a;\t\nint b; \nint c;\n"})
        self.assertEqual(checks(fs),
                         ["whitespace", "whitespace", "whitespace"])

    def test_missing_final_newline(self):
        fs = lint_tree({"src/util/x.cpp": "int a;"})
        self.assertEqual(checks(fs), ["whitespace"])

    def test_clean_file(self):
        fs = lint_tree({"src/util/x.cpp": "int a;\n"})
        self.assertEqual(fs, [])


class MsgTypeCorpusTest(unittest.TestCase):
    ENUM = ("#pragma once\n"
            "enum class MsgType : std::uint8_t {\n"
            "  kStateUpdate = 0,\n"
            "  kAck = 1,\n"
            "  kNumMsgTypes,\n"
            "};\n")

    @staticmethod
    def corpus_tree(enum: str, gen: str) -> list:
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src" / "core").mkdir(parents=True)
            (root / "fuzz").mkdir()
            (root / "src" / "core" / "messages.hpp").write_text(enum)
            (root / "fuzz" / "gen_corpus.cpp").write_text(gen)
            return wmlint.check_msgtype_corpus(root)

    def test_all_seeded_is_clean(self):
        fs = self.corpus_tree(
            self.ENUM,
            "put(sealed(MsgType::kStateUpdate, ...));\n"
            "put(sealed(MsgType::kAck, ...));\n")
        self.assertEqual(fs, [])

    def test_missing_seed_flagged(self):
        fs = self.corpus_tree(
            self.ENUM, "put(sealed(MsgType::kStateUpdate, ...));\n")
        self.assertEqual([f.check for f in fs], ["msgtype-corpus"])
        self.assertIn("kAck", fs[0].msg)

    def test_allow_annotation(self):
        enum = self.ENUM.replace(
            "  kAck = 1,\n",
            "  kAck = 1,  // wmlint: allow(msgtype-corpus)\n")
        fs = self.corpus_tree(
            enum, "put(sealed(MsgType::kStateUpdate, ...));\n")
        self.assertEqual(fs, [])

    def test_missing_files_skip_silently(self):
        with tempfile.TemporaryDirectory() as td:
            self.assertEqual(wmlint.check_msgtype_corpus(Path(td)), [])


class RecordCorpusTest(unittest.TestCase):
    ENUMS = ("#pragma once\n"
             "enum class RosterCheat : std::uint8_t {\n"
             "  kSpeedHack = 0,\n"
             "  kEscape = 1,\n"
             "};\n"
             "enum class RecEventKind : std::uint8_t {\n"
             "  kCheckpoint = 0,\n"
             "  kDisconnect = 1,\n"
             "};\n")

    @staticmethod
    def corpus_tree(enums: str, gen: str) -> list:
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src" / "obs").mkdir(parents=True)
            (root / "fuzz").mkdir()
            (root / "src" / "obs" / "recorder.hpp").write_text(enums)
            (root / "fuzz" / "gen_corpus.cpp").write_text(gen)
            return wmlint.check_record_corpus(root)

    def test_all_seeded_is_clean(self):
        fs = self.corpus_tree(
            self.ENUMS,
            "// RosterCheat::kSpeedHack RosterCheat::kEscape\n"
            "// RecEventKind::kCheckpoint RecEventKind::kDisconnect\n")
        self.assertEqual(fs, [])

    def test_missing_member_flagged_per_enum(self):
        fs = self.corpus_tree(
            self.ENUMS,
            "// RosterCheat::kSpeedHack RecEventKind::kCheckpoint\n")
        self.assertEqual([f.check for f in fs],
                         ["record-corpus", "record-corpus"])
        self.assertIn("RosterCheat::kEscape", fs[0].msg)
        self.assertIn("RecEventKind::kDisconnect", fs[1].msg)

    def test_allow_annotation(self):
        enums = self.ENUMS.replace(
            "  kEscape = 1,\n",
            "  kEscape = 1,  // wmlint: allow(record-corpus)\n")
        fs = self.corpus_tree(
            enums,
            "// RosterCheat::kSpeedHack\n"
            "// RecEventKind::kCheckpoint RecEventKind::kDisconnect\n")
        self.assertEqual(fs, [])

    def test_missing_files_skip_silently(self):
        with tempfile.TemporaryDirectory() as td:
            self.assertEqual(wmlint.check_record_corpus(Path(td)), [])


class PenaltyReasonTest(unittest.TestCase):
    ENUM = ("enum class PenaltyReason : std::uint8_t {\n"
            "  kPositionViolation = 0,\n"
            "  kWireViolation = 1,\n"
            "};\n")

    @staticmethod
    def penalty_tree(enum: str, cpp: str, test: str) -> list:
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src" / "reputation").mkdir(parents=True)
            (root / "tests").mkdir()
            (root / "src" / "reputation" / "misbehavior_engine.hpp").write_text(enum)
            (root / "src" / "reputation" / "misbehavior_engine.cpp").write_text(cpp)
            (root / "tests" / "misbehavior_test.cpp").write_text(test)
            return wmlint.check_penalty_reason(root)

    def test_cased_and_tested_is_clean(self):
        fs = self.penalty_tree(
            self.ENUM,
            "case PenaltyReason::kPositionViolation:\n"
            "case PenaltyReason::kWireViolation:\n",
            "PenaltyReason::kPositionViolation PenaltyReason::kWireViolation\n")
        self.assertEqual(fs, [])

    def test_missing_string_case_flagged(self):
        fs = self.penalty_tree(
            self.ENUM,
            "case PenaltyReason::kPositionViolation:\n",
            "PenaltyReason::kPositionViolation PenaltyReason::kWireViolation\n")
        self.assertEqual([f.check for f in fs], ["penalty-reason"])
        self.assertIn("to_string", fs[0].msg)
        self.assertIn("kWireViolation", fs[0].msg)

    def test_untested_member_flagged(self):
        fs = self.penalty_tree(
            self.ENUM,
            "case PenaltyReason::kPositionViolation:\n"
            "case PenaltyReason::kWireViolation:\n",
            "PenaltyReason::kPositionViolation\n")
        self.assertEqual([f.check for f in fs], ["penalty-reason"])
        self.assertIn("never named in tests/", fs[0].msg)

    def test_allow_annotation(self):
        enum = self.ENUM.replace(
            "  kWireViolation = 1,\n",
            "  kWireViolation = 1,  // wmlint: allow(penalty-reason)\n")
        fs = self.penalty_tree(
            enum,
            "case PenaltyReason::kPositionViolation:\n",
            "PenaltyReason::kPositionViolation\n")
        self.assertEqual(fs, [])

    def test_missing_files_skip_silently(self):
        with tempfile.TemporaryDirectory() as td:
            self.assertEqual(wmlint.check_penalty_reason(Path(td)), [])


class ConfigKnobTest(unittest.TestCase):
    PEER = ("#pragma once\n"
            "struct WatchmenConfig {\n"
            "  interest::InterestConfig interest;\n"
            "  Frame renewal_frames = 40;\n"
            "  verify::Tolerance guidance_tolerance{160.0, 160.0};\n"
            "  bool operator==(const WatchmenConfig&) const = default;\n"
            "};\n")
    SESSION = ("#pragma once\n"
               "struct SessionOptions {\n"
               "  WatchmenConfig watchmen;\n"
               "  std::vector<std::pair<PlayerId, double>> pool_weights;\n"
               "  std::function<std::unique_ptr<T>(std::size_t)> factory;\n"
               "};\n")
    # Sets every field above from bench code.
    BENCH = ("void f(SessionOptions& o) {\n"
             "  o.watchmen.interest.is_size = 5;\n"
             "  o.watchmen.renewal_frames = 60;\n"
             "  o.watchmen.guidance_tolerance = {1, 2};\n"
             "  o.pool_weights.emplace_back(1, 0.0);\n"
             "  o.factory = nullptr;\n"
             "}\n")

    @staticmethod
    def knob_tree(files: dict) -> list:
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            for rel, content in files.items():
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(content)
            return wmlint.check_config_knob(root)

    def tree(self, bench=BENCH, peer=PEER, **extra) -> list:
        files = {"src/core/peer.hpp": peer,
                 "src/core/session.hpp": self.SESSION,
                 "bench/b.cpp": bench}
        files.update(extra)
        return self.knob_tree(files)

    def test_fields_are_parsed(self):
        lines = self.PEER.split("\n")
        self.assertEqual(
            [f for _, f in wmlint.struct_fields(lines, "WatchmenConfig")],
            ["interest", "renewal_frames", "guidance_tolerance"])
        lines = self.SESSION.split("\n")
        self.assertEqual(
            [f for _, f in wmlint.struct_fields(lines, "SessionOptions")],
            ["watchmen", "pool_weights", "factory"])

    def test_every_field_set_is_clean(self):
        self.assertEqual(self.tree(), [])

    def test_field_set_only_by_tests_examples_recorder_flagged(self):
        only_elsewhere = "  o.watchmen.renewal_frames = 60;\n"
        fs = self.tree(
            bench=self.BENCH.replace(only_elsewhere, ""),
            **{"tests/t.cpp": only_elsewhere,
               "examples/e.cpp": only_elsewhere,
               "src/obs/recorder.cpp": only_elsewhere})
        self.assertEqual([f.check for f in fs], ["config-knob"])
        self.assertIn("WatchmenConfig::renewal_frames", fs[0].msg)
        self.assertEqual(fs[0].line, 4)

    def test_comparison_and_comment_are_not_assignments(self):
        bench = self.BENCH.replace(
            "  o.watchmen.renewal_frames = 60;\n",
            "  bool b = o.watchmen.renewal_frames == 60;\n"
            "  // o.watchmen.renewal_frames = 60;\n")
        fs = self.tree(bench=bench)
        self.assertEqual([f.check for f in fs], ["config-knob"])

    def test_allow_annotation_needs_a_reason(self):
        bench = self.BENCH.replace("  o.watchmen.renewal_frames = 60;\n", "")
        with_reason = self.PEER.replace(
            "  Frame renewal_frames = 40;\n",
            "  // wmlint: allow(config-knob) the chaos suite moves it\n"
            "  Frame renewal_frames = 40;\n")
        self.assertEqual(self.tree(bench=bench, peer=with_reason), [])
        bare = self.PEER.replace(
            "  Frame renewal_frames = 40;\n",
            "  Frame renewal_frames = 40;  // wmlint: allow(config-knob)\n")
        fs = self.tree(bench=bench, peer=bare)
        self.assertEqual([f.check for f in fs], ["config-knob"])
        self.assertIn("needs a reason", fs[0].msg)

    def test_missing_files_skip_silently(self):
        with tempfile.TemporaryDirectory() as td:
            self.assertEqual(wmlint.check_config_knob(Path(td)), [])


class CliTest(unittest.TestCase):
    def test_exit_codes(self):
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            (root / "src").mkdir()
            (root / "src" / "ok.cpp").write_text("int a;\n")
            self.assertEqual(wmlint.main(["--root", td]), 0)
            (root / "src" / "bad.cpp").write_text("int b = rand();\n")
            self.assertEqual(wmlint.main(["--root", td]), 1)
            self.assertEqual(wmlint.main(["--root", str(root / "nope")]), 2)


if __name__ == "__main__":
    unittest.main()
