"""The benchmark's own copy of ``recover`` agrees with the library.

``perfbench/pipeline.py`` spells ``recover`` out again through public calls
to time each step; these tests import it (read only) and check, on the
golden base-point fixtures, that its traced result equals ``recover``'s and
that its untraced op succeeds.  A change to the public steps that breaks
the benchmark fails here.
"""

import sys
from pathlib import Path

import pytest

from enriques import parse, recover

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from clock import Clock  # noqa: E402
from pipeline import Tracer, result_key, run_op, traced_op  # noqa: E402

GOLDEN_BP = ["ex04_bp.json", "ex05_bp.json", "ex06_bp.json", "ex07_bp.json"]


@pytest.mark.parametrize("name", GOLDEN_BP)
def test_traced_op_equals_recover(fixture_dir, name):
    text = (fixture_dir / name).read_text(encoding="utf-8")
    op = traced_op(text, Tracer())
    assert op.outcome == "ok"
    assert result_key(op.result) == result_key(recover(parse(text)[1]))


@pytest.mark.parametrize("name", GOLDEN_BP)
def test_run_op_is_ok(fixture_dir, name):
    text = (fixture_dir / name).read_text(encoding="utf-8")
    assert run_op(text, Clock()).outcome == "ok"
