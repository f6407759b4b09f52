#!/usr/bin/env python3
"""Tests for sqlnf_lint.py: one fixture tree per rule under testdata/.

Each violation fixture also embeds the rule's sanctioned counterpart
(allowlisted file, exempt construct), so these tests pin both halves of
every rule: it fires where it must and stays quiet where it must not.
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import sqlnf_lint  # noqa: E402

TESTDATA = Path(__file__).resolve().parent / "testdata"


def rules_of(findings):
    return sorted({f.rule for f in findings})


class CleanFixtureTest(unittest.TestCase):
    def test_clean_tree_has_no_findings(self):
        findings = sqlnf_lint.run(TESTDATA / "clean")
        self.assertEqual(findings, [],
                         "\n".join(str(f) for f in findings))


class OrderedCodeCompareTest(unittest.TestCase):
    def setUp(self):
        self.findings = sqlnf_lint.check_ordered_code_compare(
            TESTDATA / "ordered_code")

    def test_flags_code_vs_code_comparison(self):
        self.assertEqual(len(self.findings), 1,
                         "\n".join(str(f) for f in self.findings))
        f = self.findings[0]
        self.assertEqual(f.rule, "ordered-code-compare")
        self.assertEqual(f.path, "src/sqlnf/engine/join.cc")
        self.assertEqual(f.line, 4)

    def test_exempts_bounds_checks_and_allowlisted_files(self):
        flagged = {f.path for f in self.findings}
        self.assertNotIn("src/sqlnf/engine/predicate.cc", flagged)
        # join.cc's bounds check (line 7) must not be among the hits.
        self.assertEqual([f.line for f in self.findings
                          if f.path == "src/sqlnf/engine/join.cc"], [4])


class NondeterminismTest(unittest.TestCase):
    def test_flags_rand_clock_and_getenv(self):
        findings = sqlnf_lint.check_nondeterminism(TESTDATA / "nondet")
        self.assertEqual(len(findings), 4,
                         "\n".join(str(f) for f in findings))
        messages = " ".join(f.message for f in findings)
        self.assertIn("rand()", messages)
        self.assertIn("chrono clock", messages)
        self.assertIn("getenv()", messages)

    def test_comments_and_strings_do_not_fire(self):
        findings = sqlnf_lint.check_nondeterminism(TESTDATA / "clean")
        self.assertEqual(findings, [])

    def test_simd_dispatch_getenv_is_reported(self):
        # The rule has no exemptions: a getenv() in the SIMD kernel
        # file is a finding like any other.
        findings = sqlnf_lint.check_nondeterminism(TESTDATA / "nondet")
        hits = [f for f in findings
                if f.path == "src/sqlnf/core/simd_kernels.cc"]
        self.assertEqual(len(hits), 1, "\n".join(str(f) for f in findings))
        self.assertIn("getenv()", hits[0].message)


class SimdConfinementTest(unittest.TestCase):
    def setUp(self):
        self.findings = sqlnf_lint.check_simd_confinement(TESTDATA / "simd")

    def test_flags_intrinsics_and_macros_outside_kernel_layer(self):
        # The immintrin.h include and the SQLNF_SIMD_X86 use.
        self.assertEqual(len(self.findings), 2,
                         "\n".join(str(f) for f in self.findings))
        self.assertTrue(all(f.rule == "simd-confinement"
                            for f in self.findings))
        self.assertTrue(all(f.path == "src/sqlnf/engine/hand_vector.cc"
                            for f in self.findings))

    def test_kernel_layer_is_sanctioned(self):
        flagged = {f.path for f in self.findings}
        self.assertNotIn("src/sqlnf/util/simd.h", flagged)
        self.assertNotIn("src/sqlnf/core/simd_kernels.cc", flagged)


class MutableCodesTest(unittest.TestCase):
    def test_flags_unsanctioned_caller_only(self):
        findings = sqlnf_lint.check_mutable_codes(TESTDATA / "mutable_codes")
        self.assertEqual(len(findings), 1,
                         "\n".join(str(f) for f in findings))
        self.assertEqual(findings[0].path, "src/sqlnf/engine/sneaky.cc")
        self.assertEqual(findings[0].rule, "mutable-codes")


class TestRegistrationTest(unittest.TestCase):
    def test_flags_orphan_and_stale_entries(self):
        findings = sqlnf_lint.check_test_registration(
            TESTDATA / "unregistered")
        self.assertEqual(rules_of(findings), ["unregistered-test"])
        messages = " ".join(f.message for f in findings)
        self.assertIn("orphan_test", messages)  # on disk, not registered
        self.assertIn("ghost_test", messages)   # registered, not on disk
        self.assertEqual(len(findings), 2,
                         "\n".join(str(f) for f in findings))

    def test_clean_registration_passes(self):
        findings = sqlnf_lint.check_test_registration(TESTDATA / "clean")
        self.assertEqual(findings, [])


class RawMutexTest(unittest.TestCase):
    def test_flags_raw_locking_outside_wrapper(self):
        findings = sqlnf_lint.check_raw_mutex(TESTDATA / "raw_mutex")
        flagged = {(f.path, f.line) for f in findings}
        # The include, the std::mutex member, and the lock_guard.
        self.assertEqual(len(findings), 3,
                         "\n".join(str(f) for f in findings))
        self.assertTrue(all(p == "src/sqlnf/engine/locky.cc"
                            for p, _ in flagged))

    def test_wrapper_itself_is_sanctioned(self):
        findings = sqlnf_lint.check_raw_mutex(TESTDATA / "raw_mutex")
        self.assertNotIn("src/sqlnf/util/mutex.h",
                         {f.path for f in findings})


class RawSocketTest(unittest.TestCase):
    def setUp(self):
        self.findings = sqlnf_lint.check_raw_socket(
            TESTDATA / "raw_socket")

    def test_flags_engine_socket_usage(self):
        # The include, the socket() call, and the ::connect() call.
        self.assertEqual(len(self.findings), 3,
                         "\n".join(str(f) for f in self.findings))
        self.assertTrue(all(f.rule == "raw-socket" for f in self.findings))
        self.assertTrue(all(f.path == "src/sqlnf/engine/phone_home.cc"
                            for f in self.findings))

    def test_member_calls_do_not_fire(self):
        lines = {f.line for f in self.findings}
        # send/accept member calls live past line 10 of the fixture.
        self.assertTrue(all(line <= 10 for line in lines), lines)

    def test_net_subtree_is_sanctioned(self):
        self.assertNotIn("src/sqlnf/net/transport.cc",
                         {f.path for f in self.findings})


class ReferenceConfinementTest(unittest.TestCase):
    def setUp(self):
        self.findings = sqlnf_lint.check_reference_confinement(
            TESTDATA / "reference_confinement")

    def test_flags_oracle_includes_in_serving_trees(self):
        # The serving source's live include and the tool's include.
        self.assertEqual(
            sorted((f.path, f.line) for f in self.findings),
            [("src/sqlnf/engine/leaky.cc", 5), ("tools/cli.cc", 2)],
            "\n".join(str(f) for f in self.findings))
        self.assertTrue(all(f.rule == "reference-confinement"
                            for f in self.findings))

    def test_reference_sources_and_tests_are_sanctioned(self):
        flagged = {f.path for f in self.findings}
        self.assertNotIn("src/sqlnf/reference/relops.cc", flagged)
        self.assertNotIn("src/sqlnf/related/alt_semantics.cc", flagged)
        self.assertNotIn("tests/oracle_test.cc", flagged)


class ThrowingParseTest(unittest.TestCase):
    def test_flags_free_sto_calls_only(self):
        findings = sqlnf_lint.check_throwing_parse(
            TESTDATA / "throwing_parse")
        self.assertEqual(
            sorted((f.path, f.line) for f in findings),
            [("src/sqlnf/engine/literal.cc", 8),
             ("src/sqlnf/engine/literal.cc", 9)],
            "\n".join(str(f) for f in findings))
        self.assertTrue(all(f.rule == "throwing-parse" for f in findings))

    def test_clean_tree_passes(self):
        self.assertEqual(
            sqlnf_lint.check_throwing_parse(TESTDATA / "clean"), [])


class RealTreeTest(unittest.TestCase):
    """The shipped tree must be lint-clean — this is the CI gate."""

    def test_repository_is_clean(self):
        repo_root = Path(__file__).resolve().parents[2]
        if not (repo_root / "src" / "sqlnf").is_dir():
            self.skipTest("not running inside the repository checkout")
        findings = sqlnf_lint.run(repo_root)
        self.assertEqual(findings, [],
                         "\n".join(str(f) for f in findings))


if __name__ == "__main__":
    unittest.main()
