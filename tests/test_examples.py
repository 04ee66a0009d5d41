"""The example scripts must run clean and print their key landmarks."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestQuickstart:
    def test_runs_and_reports(self):
        out = run_example("quickstart.py")
        assert "pupil = teach o class_list" in out
        assert "g1: NOT(" in out
        assert "pupil(euclid, bill) is true again" in out


class TestUniversityRegistrar:
    def test_runs_and_reports(self):
        out = run_example("university_registrar.py")
        assert "designer removed taught_by (derived)" in out
        assert "grade = score o cutoff" in out
        assert "lecturer_of(john, laplace)    -> false" in out
        assert "degree of ambiguity" in out
        assert "n1 := 85" in out


class TestViewUpdateComparison:
    def test_runs_and_reports(self):
        out = run_example("view_update_comparison.py")
        assert "DEL(r1, <a1, b1>); DEL(r1, <a1, b2>)" in out
        assert "DEL(r3, <c1, d1>)" in out
        assert "0 base deletions" in out
        assert "every stored base fact survived: True" in out


class TestAmbiguityAnalysis:
    def test_runs_and_reports(self):
        out = run_example("ambiguity_analysis.py")
        assert "3 possible worlds over 2 ambiguous facts" in out
        assert "P(pupil('laplace', 'bill') derivable) = 1.000" in out
        assert "derivable via [score o cutoff] but not via" in out
        assert "undone DEL(pupil, <gauss, bill>)" not in out  # INS undone
        assert "undone INS(pupil, <gauss, bill>)" in out
        # DEL then INS again: clean-up-NVC, no new null.
        assert ("DEL(pupil, <gauss, bill>): pupil(gauss, bill) is "
                "AMBIGUOUS, next null n2") in out
        assert ("INS(pupil, <gauss, bill>): pupil(gauss, bill) is TRUE, "
                "next null n2") in out


class TestCompanyHr:
    def test_runs_and_reports(self):
        out = run_example("company_hr.py")
        assert "designer kept the cycle (no edge removed)" in out
        assert "dept_head_of = works_in o manages^-1" in out
        assert "n1 := research (forced by manages)" in out
        assert "error: update INS(badge, <alice, b99>) undone" in out
        assert "carol's department head: erin" in out


class TestDurability:
    def test_runs_and_reports(self):
        out = run_example("durability.py")
        assert "simulated crash: torn final log line" in out
        assert "recovered: 2 log entries (torn tail skipped)" in out
        assert "recovered state identical to pre-crash state: True" in out


class TestObservabilityDemo:
    def test_runs_and_reports(self):
        out = run_example("observability_demo.py")
        assert "u1: DEL(pupil, <euclid, john>)" in out
        assert ("+ nc.created index=g1 chain=<teach, euclid, math> . "
                "<class_list, math, john>") in out
        assert "+ nvc.created derivation=teach o class_list facts=2" in out
        assert "+ nc.dismantled index=g1 cause=delete" in out
        assert "observability: enabled, tracing" in out
        assert "fdb.updates.derived_delete" in out


class TestInteractiveScript:
    def test_runs_and_reports(self):
        out = run_example("interactive_script.py")
        assert "grade classified as derived" in out
        assert "taught_by(geometry) = euclid: true" in out
        assert "grade(('john', 'geometry')) = A: false" in out
        assert "g1: NOT(<score, ('john', 'geometry'), 91> AND "in out
        assert "resolved: n1 := 78 (forced by score)" in out
        assert "undo history cleared" in out
