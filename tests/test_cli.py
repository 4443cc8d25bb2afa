import hashlib
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
    # the one catalog path whose masks take three bytes).
    @pytest.mark.parametrize("spec,checks,digest", [
        ("C6", "all", "d2376408514ef41f459d475c4db3f6cc4771b09d285692ca0986f040c815dcd6"),
        ("Q8", "kemperman,olson,automatching,matching-property,hall",
         "f347da3c64ef2fe9902cd37aa830d3e54736d3c9530f6cfdb4969018ef6d006d"),
        ("D6", "automatching,matching-property",
         "ea3a40b03ede82682cba70062d6c11d9bd539cf56e73e1b50e1dc709a08fec68"),
        ("C14", "automatching,matching-property,hall",
         "beb81da279ce7aa37cebcd62efc5728e2f5b2d3ad75aeb874529d3d647be1dc4"),
        ("C14", "kemperman,olson",
         "26bee95500f87ac794407282346e553522cc9512ee68448f23881e50f6d89715"),
        ("D5", "kemperman,olson",
         "889c227cf7aa363ba89d2a55f26d13cbf70c97181cb25a41cf31ea549e8b0799"),
        ("S4", "matching-property",
         "02feedd0e508b01c52576e848c5419aef50230260df52f9c9e18847dbf3e534b"),
        ("C2xC2xC2", "automatching,matching-property,hall",
         "f84a1932bbe9c6db8892e3222b57152a2d9560c0f1fbe007f37c3b9f92aa88a2"),
    ])
    def test_machine_report_digest_is_pinned(self, capsys, spec, checks, digest):
        code, out = run(capsys, "verify", spec, "--checks", checks, "--seed", "7",
                        "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
