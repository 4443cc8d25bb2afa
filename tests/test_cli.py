import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from groupmatch import CheckReport, cli, make_quaternion, save_group_file
from groupmatch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestMatchCommand:
    def test_violator_exits_one(self, capsys):
        code, out = run(capsys, "match", "C4", "{0,2}", "{1,2}")
        assert code == 1
        assert "S = {0, 2}" in out and "deficiency = 1" in out

    def test_matching_exits_zero(self, capsys):
        code, out = run(capsys, "match", "C5", "{1,2,3,4}", "{1,2,3,4}")
        assert code == 0
        assert "matching found" in out

    def test_identity_in_b_is_input_error(self, capsys):
        code, out = run(capsys, "match", "C4", "{0,2}", "{0,2}")
        assert code == 2
        assert "identity" in out

    def test_size_mismatch_is_input_error(self, capsys):
        code, _ = run(capsys, "match", "C4", "{0,2}", "{1}")
        assert code == 2

    def test_bad_literal_is_input_error(self, capsys):
        code, out = run(capsys, "match", "C4", "{0,2", "{1,2}")
        assert code == 2
        assert "column" in out

    def test_bad_group_spec_is_input_error(self, capsys):
        code, _ = run(capsys, "match", "X9", "{0}", "{1}")
        assert code == 2

    def test_machine_format(self, capsys):
        code, out = run(capsys, "match", "C4", "{0,2}", "{1,2}", "--format", "machine")
        doc = json.loads(out)
        assert code == 1
        assert doc["result"] == "violator"
        assert doc["violator"] == {"S": [0, 2], "neighborhood": [1], "deficiency": 1}

    def test_lattice_group_match(self, capsys):
        code, out = run(capsys, "match", "Z^2", "{(0,0),(1,1)}", "{(1,0),(0,1)}")
        assert code == 0

    def test_table_file_as_group(self, capsys, tmp_path):
        path = tmp_path / "q8.table"
        save_group_file(make_quaternion(), path)
        code, out = run(capsys, "match", str(path), "{1,4}", "{1,4}")
        assert code == 0
        assert "i" in out   # display uses the file's element names

    def test_table_file_over_order_cap_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "big.table"
        path.write_text("n 5041\n", encoding="utf-8")
        code, out = run(capsys, "match", str(path), "{0}", "{1}")
        assert code == 2
        assert "exceeds cap 5040" in out


    def test_directory_as_group_is_input_error(self, capsys, tmp_path):
        code, out = run(capsys, "match", str(tmp_path), "{0}", "{1}")
        assert code == 2
        assert out == f"error: cannot read group file {tmp_path}: Is a directory\n"
        code, out = run(capsys, "match", str(tmp_path), "{0}", "{1}", "--format", "machine")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_unreadable_table_file_is_input_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "q8.table"
        save_group_file(make_quaternion(), path)

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", denied)
        code, out = run(capsys, "verify", str(path), "--checks", "kemperman")
        assert code == 2
        assert out == f"error: cannot read group file {path}: Permission denied\n"


class TestVerifyCommand:
    def test_all_checks_pass_on_c5(self, capsys):
        code, out = run(capsys, "verify", "C5", "--checks", "all")
        assert code == 0
        assert "overall: PASS" in out

    def test_c4_property_failure_agrees_with_prediction(self, capsys):
        code, out = run(capsys, "verify", "C4", "--checks", "matching-property")
        assert code == 0
        assert '"pairs_failed": 4' in out

    def test_c3_corollary_flags_stated_bound(self, capsys):
        code, out = run(capsys, "verify", "C3", "--checks", "corollary")
        assert code == 0
        assert "stated-bound-counterexample" in out

    def test_size_limit_names_the_check(self, capsys):
        code, out = run(capsys, "verify", "C7", "--checks", "corollary")
        assert code == 2
        assert "corollary" in out

    def test_automatching_default_cap_admits_order_16(self, capsys):
        code, out = run(capsys, "verify", "C16", "--checks", "automatching", "--format", "machine")
        report, = json.loads(out)["checks"]
        assert code == 0
        assert (report["status"], report["instances_tested"]) == ("pass", 2 ** 15 - 1)

    def test_cap_override_allows_larger_sweep(self, capsys):
        code, _ = run(capsys, "verify", "C7", "--checks", "corollary", "--cap-order", "7")
        assert code == 0

    def test_cap_order_rejected_for_uncapped_check(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "sweep_olson", lambda *args, **kwargs: ran.append("olson"))
        code, out = run(capsys, "verify", "C6", "--checks", "olson,kemperman", "--cap-order", "6")
        assert code == 2
        assert "does not apply to kemperman:" in out
        assert ran == []

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_order_below_one_rejected_before_any_check(self, capsys, monkeypatch, cap):
        ran = []
        monkeypatch.setattr(cli, "sweep_olson", lambda *args, **kwargs: ran.append("olson"))
        code, out = run(capsys, "verify", "C6", "--checks", "olson", "--cap-order", cap,
                        "--format", "machine")
        assert code == 2 and ran == []
        error = json.loads(out)["error"]
        assert error == {"type": "ValueError",
                         "message": f"--cap-order must be at least 1, got {cap}"}

    def test_cap_order_still_sets_olson_subgroup_cap(self, capsys):
        code, out = run(capsys, "verify", "C6", "--checks", "olson", "--cap-order", "5")
        assert code == 2
        assert "check olson" in out and "cap 5" in out
        code, _ = run(capsys, "verify", "C6", "--checks", "olson", "--cap-order", "6")
        assert code == 0

    def test_cap_order_applies_to_exhaustive_matching_property(self, capsys):
        code, out = run(capsys, "verify", "C6", "--checks", "matching-property",
                        "--cap-order", "3")
        assert code == 2
        assert "check matching-property" in out and "cap 3" in out

    @pytest.mark.parametrize("jobs", ["0", "-5", "2"])
    def test_jobs_other_than_one_rejected_before_any_check(self, capsys, monkeypatch, jobs):
        ran = []
        monkeypatch.setattr(cli, "sweep_kemperman", lambda *args, **kwargs: ran.append(1))
        code, out = run(capsys, "verify", "C4", "--checks", "kemperman", "--jobs", jobs,
                        "--format", "machine")
        assert code == 2
        assert "--jobs" in json.loads(out)["error"]["message"]
        assert ran == []

    def test_check_function_resolved_at_call_time(self, capsys, monkeypatch):
        calls = []

        def wrapper(group, **kwargs):
            calls.append(sorted(kwargs))
            return CheckReport("hall", instances_tested=1, status="pass")

        monkeypatch.setattr(cli, "sweep_hall", wrapper)
        code, _ = run(capsys, "verify", "C4", "--checks", "hall")
        assert code == 0
        assert calls == [["seed"]]

    @pytest.mark.parametrize("checks", ["", ",", " , "])
    def test_empty_checks_rejected_before_any_check(self, capsys, monkeypatch, checks):
        ran = []
        for function, _, _ in cli.CHECKS.values():
            monkeypatch.setattr(cli, function, lambda *args, **kwargs: ran.append(1))
        code, out = run(capsys, "verify", "C6", f"--checks={checks}", "--format", "machine")
        assert code == 2
        assert "--checks" in json.loads(out)["error"]["message"]
        assert ran == []

    def test_unknown_check_rejected(self, capsys):
        code, _ = run(capsys, "verify", "C4", "--checks", "nonsense")
        assert code == 2

    def test_lattice_spec_rejected(self, capsys):
        code, _ = run(capsys, "verify", "Z^2")
        assert code == 2

    def test_verify_envelope_has_no_jobs_field(self, capsys):
        code, out = run(capsys, "verify", "C4", "--checks", "kemperman", "--jobs", "1",
                        "--format", "machine")
        doc = json.loads(out)
        assert code == 0 and doc["schema"] == "groupmatch/2"
        assert sorted(doc) == ["checks", "command", "group", "order", "schema", "seed", "status"]

    def test_machine_reports_are_byte_identical(self, capsys):
        args = ("verify", "C4", "--checks", "kemperman,matching-property,hall",
                "--seed", "11", "--jobs", "1", "--format", "machine")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["status"] == "pass"
        assert [c["check"] for c in doc["checks"]] == ["kemperman", "matching-property", "hall"]

    # Digests of reports recorded before the checks shared their instance
    # generators and corollary moved to the bitmask kernel (C6, Q8), before
    # automatching and matching-property left GroupSubset and find_matching
    # (D6 has violator records; C14 has 13x13 pairs, which find_matching
    # gathers from the numpy table), and before the product-set sweeps ran
    # as array blocks (C14 and D5 sample their pairs above the exhaustive cap),
    # and before the sweeps built their rows from per-byte stay tables (S4 is
    # the one catalog path whose masks take three bytes), and before the
    # groupmatch/2 schema dropped "jobs" and certified the composite orders
    # above 7 (Q8, D6, C14, S4 and C2xC2xC2 changed in matching-property; C6,
    # C14 and D5 in the envelope alone).
    @pytest.mark.parametrize("spec,checks,digest", [
        ("C6", "all", "94e74fdf7994dd5a4ac2591cd3a990438bed126e879a6fa90007a32ef68a9742"),
        ("Q8", "kemperman,olson,automatching,matching-property,hall",
         "f5de380923bbb9ce1c72e404399702c99402b602161589130b7cfdde44ae826c"),
        ("D6", "automatching,matching-property",
         "9e0834978ab26fafd850c79634a21b2c06dc0f718e8048b7d18997986af769fe"),
        ("C14", "automatching,matching-property,hall",
         "6c3ce7cb2cb3b706f09f70583213f240bdf3360b39a321f03189d7693da57329"),
        ("C14", "kemperman,olson",
         "725a330aef8366f24c1adea41b6a9f06e33fa749d914c8f9c4b66ecbd134c1d4"),
        ("D5", "kemperman,olson",
         "105842b763c21159797cf4afd491ae35f6da569f726cf276bfffcfab0866b50f"),
        ("S4", "matching-property",
         "219d101c39aa56eb3f9b5cb0405d7097e87af2bd30a02e3707058f25f7ddd7ef"),
        ("C2xC2xC2", "automatching,matching-property,hall",
         "8cc4334e05872b7ea044041293485c749edbb7ce0196ba159e42acfbbb558788"),
    ])
    def test_machine_report_digest_is_pinned(self, capsys, spec, checks, digest):
        code, out = run(capsys, "verify", spec, "--checks", checks, "--seed", "7",
                        "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_draw_heavy_hall_digest_is_pinned(self, capsys):
        # C4 admits 34 Hall pairs, so its 500 draws repeat each of them;
        # recorded before the Hall sweep decided each distinct pair once.
        code, out = run(capsys, "verify", "C4", "--checks", "hall", "--seed", "0",
                        "--format", "machine")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "ec2beb74cf0bae406133b6ff94d4faa7cdefe9db6c45906af4cf263198a615a6")

    # Recorded while both samplers still drew per call from random.Random:
    # C23's Hall draws reach random.sample's set branch (a population above
    # 21), and Z^3 draws three randint coordinates per point.  The bound
    # 5 * 10**9 makes each Z^1 coordinate a 34-bit draw, wider than one
    # 32-bit Mersenne Twister word.
    @pytest.mark.parametrize("argv,digest", [
        (("lattice", "-d", "3", "-t", "300", "--seed", "7"),
         "0c24f24a147050f5f87b8732976e5dbb7e61630453bb867ed35aa445b854bf15"),
        (("verify", "C23", "--checks", "hall,matching-property", "--seed", "7"),
         "ad120007e0ce8cfeda58830a59b908c3d66e598f404a9163e560a57b26e6bcdf"),
        (("lattice", "-d", "1", "-t", "200", "--bound", "5000000000", "--seed", "7"),
         "d15d03352a7c824bfc8bf2f83acdf99bf066e45dc8507897841d65bac216d570"),
    ])
    def test_seeded_sampler_digest_is_pinned(self, capsys, argv, digest):
        code, out = run(capsys, *argv, "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Recorded before matching-property chose its mode in one branch, Hall's
    # disagreement became a return value and the product-spec offsets came
    # from itertools.accumulate.  Each digest covers the machine stdouts of
    # its runs, concatenated in order; the Hall draws go through _sized_pairs,
    # which reproduces random.sample.  The matchings pin the free-first
    # search's order as find_matching returns it (recorded when that replaced
    # Kuhn's order, which gave other matchings on 14 of these 16 pairs); the
    # other six pairs get violators.  Exit codes are one per run, or one for
    # all of them.
    @pytest.mark.parametrize("argvs,exit_code,digest", [
        ([("verify", g, "--checks", "matching-property,hall", "--seed", "7")
          for g in "C11 C13 C15 C16 C17 C19 D7 D8 D11 D12 S4".split()], 0,
         "05f5a75967baf3f2d6e34f4924eec712223c951cd60ec4dd80952b38438683cd"),
        ([("counterexample", g)
          for g in "C4 C6 C8 C9 C10 C12 C14 C2xC2 C2xC4 D3 D4 D5 D6 Q8 S4 C24".split()], 0,
         "091b142f66517bf3d35755e4222b893acb42553d29f18f712427df69bb954b87"),
        ([("match", g, "{0}", "{1}")
          for g in "C4xX9 C2xxC3 xC4 C4x D0xC2 C2xS9 C2xC3xQ9".split()], 2,
         "5f6b4815fa235441f6c44e1b6960a48d792fe1b18054e9e4ec5585143016fb19"),
        ([("match", g, a, b) for g, a, b in [
            ("C5", "{0,4}", "{2,3}"), ("C5", "{1,3,4}", "{2,3,4}"), ("C5", "{2,3}", "{2,3}"),
            ("C8", "{3,6,7}", "{3,5,7}"), ("C8", "{1,2,4,5}", "{3,4,5,7}"),
            ("C8", "{3,7}", "{2,5}"), ("C8", "{0,1,4,5}", "{2,4,5,7}"),
            ("C8", "{0,2,3,4,6}", "{1,2,5,6,7}"),
            ("Q8", "{4,5}", "{4,6}"), ("Q8", "{1,3,4,6}", "{1,3,4,7}"),
            ("Q8", "{0,3,4,7}", "{2,3,4,7}"), ("Q8", "{2,6}", "{4,5}"),
            ("D6", "{1,2,4,9,10}", "{2,3,4,5,9}"), ("D6", "{1,8}", "{9,11}"),
            ("D6", "{1,3,5,7,8,9,10,11}", "{3,4,5,6,7,8,10,11}"),
            ("D6", "{0,1,2,3,4,5}", "{1,3,5,7,8,11}"),
            ("S4", "{5,9}", "{5,12}"), ("S4", "{0,2,5,6,16,21}", "{2,12,13,14,16,20}"),
            ("S4", "{1,20}", "{4,13}"),
            ("Z^2", "{(-1,-1),(-1,1),(1,-1)}", "{(-1,1),(1,-1),(1,0)}"),
            ("Z^2", "{(-1,0),(0,1),(1,1)}", "{(-1,-1),(-1,1),(0,-1)}"),
            ("Z^2", "{(0,-1),(1,-1),(1,1)}", "{(-1,1),(0,-1),(1,0)}")]],
         [0] * 6 + [1, 1, 0, 0, 1, 1, 0, 0, 1, 1] + [0] * 6,
         "dbdefa4e93087f37d1a4e4b3b3a315caa1e2a0e6a39d49db77ef69553cccf8a5"),
    ], ids=["property-and-hall", "counterexample", "spec-parse-errors", "matchings"])
    def test_run_sequence_digest_is_pinned(self, capsys, argvs, exit_code, digest):
        codes = exit_code if isinstance(exit_code, list) else [exit_code] * len(argvs)
        h = hashlib.sha256()
        for argv, expected_code in zip(argvs, codes, strict=True):
            code, out = run(capsys, *argv, "--format", "machine")
            assert code == expected_code, argv
            h.update(out.encode())
        assert h.hexdigest() == digest

    def test_run_that_tests_nothing_is_skipped(self, capsys):
        code, out = run(capsys, "verify", "C1", "--checks", "hall")
        assert code == 2 and "overall: SKIPPED" in out
        code, out = run(capsys, "verify", "C1", "--checks", "hall", "--format", "machine")
        assert code == 2 and json.loads(out)["status"] == "skipped"
        # One check that tests an instance makes the run a pass.
        code, out = run(capsys, "verify", "C1", "--checks", "kemperman,hall", "--format", "machine")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"
        assert [c["status"] for c in doc["checks"]] == ["pass", "skipped"]


class TestPinnedOutput:
    """Text stdouts and error envelopes, pinned so that a change to how the
    CLI picks its output format shows in either format."""

    TIMING = re.compile(r"\[\d+\.\d\ds\]$", re.MULTILINE)

    # Recorded while each command printed its own text.  render_check's
    # wall-clock "[x.xxs]" is masked before hashing.
    TEXT_RUNS = [
        (("match", "C5", "{1,2,3,4}", "{1,2,3,4}"), 0),
        (("match", "C4", "{0,2}", "{1,2}"), 1),
        (("match", "Z^2", "{(0,0),(1,1)}", "{(1,0),(0,1)}"), 0),
        (("verify", "C6", "--checks", "all", "--seed", "7"), 0),
        (("verify", "C4", "--checks", "matching-property"), 0),
        (("verify", "C1", "--checks", "hall"), 2),
        (("counterexample", "Q8"), 0),
        (("lattice", "-d", "2", "-t", "40", "--seed", "3"), 0),
    ]
    TEXT_DIGEST = "fbb04a863657dd784de036fdb0075bc89751f08483d4c7d156760721016228b2"

    def test_text_output_digest_is_pinned(self, capsys):
        h = hashlib.sha256()
        for argv, expected_code in self.TEXT_RUNS:
            code, out = run(capsys, *argv)
            assert code == expected_code, argv
            h.update(self.TIMING.sub("[x.xxs]", out).encode())
        assert h.hexdigest() == self.TEXT_DIGEST

    @pytest.mark.parametrize("argv,exit_code,error_type,message", [
        (("match", "C4", "{0,2", "{1,2}"), 2, "ParseError",
         "unexpected end of input (column 5)"),
        (("match", "C4", "{0,2}", "{1}"), 2, "SizeMismatch", "|A| = 2 but |B| = 1"),
        (("match", "C4", "{0,2}", "{0,2}"), 2, "IdentityInB",
         "B contains the identity, so no matching can exist"),
        (("verify", "C7", "--checks", "corollary"), 2, "SizeLimit",
         "check corollary: containment-bound sweep: size 7 exceeds cap 6"),
        (("counterexample", "C5"), 3, "NotApplicable",
         "C5 is trivial or of prime order; every pair matches"),
        (("verify", "C4", "--checks", "kemperman", "--jobs", "2"), 2, "ValueError",
         "--jobs must be 1, got 2: the process pool was removed and every check runs "
         "in one process"),
        (("verify", "C4", "--checks", ","), 2, "ValueError", "--checks names no check: ','"),
        (("lattice", "-t", "-5"), 2, "ValueError", "trials must be at least 0, got -5"),
        (("lattice", "-d", "0"), 2, "ValueError", "lattice dimension must be >= 1"),
    ], ids=["parse", "size-mismatch", "identity-in-b", "size-limit", "not-applicable",
            "jobs", "empty-checks", "negative-trials", "zero-dimension"])
    def test_error_output_is_pinned(self, capsys, argv, exit_code, error_type, message):
        code, out = run(capsys, *argv)
        assert (code, out) == (exit_code, f"error: {message}\n")
        code, out = run(capsys, *argv, "--format", "machine")
        envelope = ('{\n  "command": "%s",\n  "error": {\n    "message": %s,\n'
                    '    "type": "%s"\n  },\n  "schema": "groupmatch/2"\n}\n'
                    % (argv[0], json.dumps(message), error_type))
        assert (code, out) == (exit_code, envelope)

    @pytest.mark.parametrize("argv,command,message", [
        (("lattice", "--trials", "many", "--format", "machine"), "lattice",
         "argument -t/--trials: invalid int value: 'many'"),
        (("match", "C4", "{1}", "--format=machine"), "match",
         "the following arguments are required: B"),
        (("--format=machine",), None, "the following arguments are required: command"),
    ], ids=["bad-value", "missing-argument", "no-command"])
    def test_usage_error_envelope_is_pinned(self, capsys, argv, command, message):
        code = main(list(argv))
        out = capsys.readouterr()
        envelope = ('{\n  "command": %s,\n  "error": {\n    "message": %s,\n'
                    '    "type": "UsageError"\n  },\n  "schema": "groupmatch/2"\n}\n'
                    % (json.dumps(command), json.dumps(message)))
        assert (code, out.out, out.err) == (2, envelope, "")

    def test_usage_error_names_no_unknown_command(self, capsys):
        # argparse's wording of an invalid choice differs between Python
        # versions, so only its start is pinned.
        assert main(["matc", "C4", "--format", "machine"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert (doc["command"], doc["error"]["type"]) == (None, "UsageError")
        assert doc["error"]["message"].startswith("argument command: invalid choice: 'matc'")

    def test_usage_error_text_goes_to_stderr(self, capsys):
        # argparse's usage and message, as argparse itself prints them; the
        # usage line's wrapping follows the terminal width.
        code = main(["lattice", "--trials", "many"])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err.startswith("usage: groupmatch lattice [-h]")
        assert out.err.endswith(
            "\ngroupmatch lattice: error: argument -t/--trials: invalid int value: 'many'\n")

    def test_zero_trial_lattice_run_is_pinned(self, capsys):
        code, out = run(capsys, "lattice", "-t", "0")
        assert code == 2
        assert self.TIMING.sub("[x.xxs]", out) == (
            "lattice Z^1\n"
            "check lattice-matching: SKIPPED  (0 instances, 0 skipped, seed 0)  [x.xxs]\n"
            '  flagged: {"count": 0, "kind": "brute-force-confirmations"}\n')
        code, out = run(capsys, "lattice", "-t", "0", "--format", "machine")
        assert code == 2
        report = {"check": "lattice-matching", "failures": [],
                  "flagged": [{"count": 0, "kind": "brute-force-confirmations"}],
                  "instances_skipped": 0, "instances_tested": 0, "seed": 0,
                  "status": "skipped"}
        assert out == json.dumps(
            {"command": "lattice", "coordinate_bound": 10, "dimension": 1, "max_size": 8,
             "report": report, "schema": "groupmatch/2", "seed": 0, "trials": 0},
            sort_keys=True, indent=2) + "\n"


class TestParserReuse:
    """main builds its parser once per process; a call must not see what an
    earlier call parsed.  Each call is compared with one made on a freshly
    built parser, as a new process would make it."""

    CALLS = [
        ("verify", "C6", "--checks", "automatching", "--cap-order", "6", "--format", "machine"),
        ("verify", "C4", "--checks", "kemperman", "--format", "machine"),
        ("lattice", "-d", "1", "-t", "20", "--format", "machine"),
        ("lattice", "-d", "1", "--trials", "many"),
        ("counterexample", "C6"),
        ("verify", "C4", "--checks", "kemperman,olson", "--seed", "3", "--format", "machine"),
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_successive_calls_equal_fresh_parser_calls(self, capsys):
        cli.build_parser.cache_clear()
        reused = [self.outcome(capsys, argv) for argv in self.CALLS]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0, 0]
        assert "invalid int value: 'many'" in reused[3][2]


class TestCounterexampleCommand:
    def test_c6(self, capsys):
        code, out = run(capsys, "counterexample", "C6")
        assert code == 0
        assert "A = <a> = {0, 2, 4}" in out
        assert "{1, 2, 4}" in out

    def test_prime_order_not_applicable(self, capsys):
        code, _ = run(capsys, "counterexample", "C5")
        assert code == 3

    def test_infinite_group_is_input_error(self, capsys):
        code, out = run(capsys, "counterexample", "Z^2", "--format", "machine")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ValueError",
            "message": "counterexamples are constructed for finite groups only"}

    def test_q8_machine(self, capsys):
        code, out = run(capsys, "counterexample", "Q8", "--format", "machine")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["A"]) in (2, 4)
        assert doc["violator"]["deficiency"] >= 1


class TestLatticeCommand:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "lattice", "-d", "1", "-t", "50")
        assert code == 0
        assert "PASS" in out

    def test_zero_trials_skipped(self, capsys):
        code, out = run(capsys, "lattice", "-d", "1", "-t", "0")
        assert code == 2
        assert "SKIPPED" in out

    def test_negative_trials_is_input_error(self, capsys):
        code, out = run(capsys, "lattice", "-d", "1", "-t", "-5")
        assert code == 2
        assert "trials" in out and "SKIPPED" not in out

    @pytest.mark.parametrize("d", ["1", "2"])
    def test_negative_bound_is_input_error(self, capsys, d):
        code, out = run(capsys, "lattice", "-d", d, "--bound", "-3")
        assert code == 2
        assert "coordinate_bound" in out
        assert "randrange" not in out and "too small" not in out

    def test_machine_determinism(self, capsys):
        args = ("lattice", "-d", "2", "-t", "40", "--seed", "3", "--format", "machine")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


def test_process_entry_point():
    """`python -m groupmatch.cli` exits through entry()'s SystemExit, and
    loads no process-pool machinery (-X importtime lists every import)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "groupmatch.cli", "verify", "C4",
         "--checks", "kemperman", "--jobs", "2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "--jobs" in proc.stdout
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "groupmatch.theorems" in imported
    assert not imported & {"concurrent.futures", "multiprocessing"}


def test_readme_cli_examples_exit_as_documented(capsys):
    """Each command line of the sh block under README's "## CLI" heading
    exits with the code its comment states ("exit N"), or 0 if none."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("groupmatch ")]
    assert lines
    for line in lines:
        stated = re.search(r"#.*\bexit (\d+)", line)
        argv = shlex.split(line, comments=True)
        assert main(argv[1:]) == (int(stated.group(1)) if stated else 0), line
        capsys.readouterr()


def test_readme_cap_table_equals_module_constants():
    """Each row of README's table of caps, "`module.NAME = value`", names a
    constant of that groupmatch module with that value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| constant | bounds |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [re.match(r"\| `(\w+)\.(\w+) = (\d+)` \| ", line) for line in table.splitlines()]
    assert len(rows) == 6 and all(rows), table
    for row in rows:
        module, name, value = row.groups()
        assert getattr(importlib.import_module(f"groupmatch.{module}"), name) == int(value), row[0]
