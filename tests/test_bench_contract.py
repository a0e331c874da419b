"""The benchmark's own copy of ``recover`` agrees with the library.

``perfbench/pipeline.py`` spells ``recover`` out again through public calls
to time each step; these tests import it (read only) and check, on the
golden base-point fixtures and on fan and polar inputs from the
benchmark's own generators (``perfbench/workloads.py``, also read only),
that its traced result equals ``recover``'s and that its untraced op
succeeds; and, on inputs that ``recover`` rejects, that the traced and
untraced ops reject them with the same error class.  The golden documents
in ``perfbench/data`` must be byte copies of the test fixtures of the same
name, so the benchmark's golden gate and the suites pin the same answers.
A change to the public steps that breaks the benchmark fails here.
"""

import random
import sys
from pathlib import Path

import pytest

from enriques import WeightKind, WeightedCluster, parse, recover, serialize
from enriques import errors

import fixture_builders as fb
import randgen

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from clock import Clock  # noqa: E402
from pipeline import Tracer, result_key, run_op, traced_op  # noqa: E402
import workloads  # noqa: E402

GOLDEN_BP = ["ex04_bp.json", "ex05_bp.json", "ex06_bp.json", "ex07_bp.json"]


def _fan(k):
    return workloads.fan(k, random.Random(k))


# Fans walk many runs shorter than CHAIN_CROSSOVER, over many cones; every
# polar here but j = 3, n = 16 also walks a run of CHAIN_CROSSOVER or more.
WORKLOAD_INPUTS = (
    [pytest.param(_fan, (k,), id=f"fan_k{k}") for k in (8, 23, 60, 110)]
    + [pytest.param(workloads.polar, (n, j), id=f"polar_j{j}_n{n}")
       for j in (2, 3) for n in (16, 45, 130, 400)])


def _assert_traced_op_equals_recover(text):
    op = traced_op(text, Tracer())
    assert op.outcome == "ok"
    assert result_key(op.result) == result_key(recover(parse(text)[1]))


@pytest.mark.parametrize("name", GOLDEN_BP)
def test_traced_op_equals_recover(fixture_dir, name):
    _assert_traced_op_equals_recover(
        (fixture_dir / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("generator, args", WORKLOAD_INPUTS)
def test_traced_op_equals_recover_on_workloads(generator, args):
    _assert_traced_op_equals_recover(generator(*args))


@pytest.mark.parametrize("name", GOLDEN_BP)
def test_run_op_is_ok(fixture_dir, name):
    text = (fixture_dir / name).read_text(encoding="utf-8")
    assert run_op(text, Clock()).outcome == "ok"


@pytest.mark.parametrize("generator, args", WORKLOAD_INPUTS)
def test_run_op_is_ok_on_workloads(generator, args):
    assert run_op(generator(*args), Clock()).outcome == "ok"


def _perturbed(builder, seed, tweaks):
    """A golden fixture with ``randgen.perturb_weights`` applied, as text."""
    tree, bp, _ = builder()
    weights = randgen.perturb_weights(
        tree, dict(bp.weight), random.Random(seed), tweaks)
    return serialize(tree, WeightedCluster(tree, WeightKind.VIRTUAL, weights))


def _rows(rows):
    tree, bp = randgen.build_cluster(rows, WeightKind.VIRTUAL)
    return serialize(tree, bp)


# No +-1 perturbation of a golden fixture is known to reach EmptyRuptureSet
# (4 fixtures x 1,500 rng seeds at 6, 20, 60 and 200 tweaks), so that case
# is the consistent cluster of test_recovery's invalid-input table.
REJECTED = {
    "NonPositiveMultiplicity": lambda: _perturbed(fb.ex05_bp, 3, 6),
    "InconsistentCluster": lambda: _perturbed(fb.ex04_bp, 20, 200),
    "EmptyRuptureSet": lambda: _rows([
        (None, None, 19), (0, None, 17), (1, None, 9), (2, 1, 5),
        (3, 1, 1), (3, 2, 1), (1, 0, 2), (5, 3, 1), (6, None, 2)]),
}


@pytest.mark.parametrize("error", sorted(REJECTED))
def test_rejected_input_same_outcome_traced_and_untraced(error):
    text = REJECTED[error]()
    with pytest.raises(getattr(errors, error)):
        recover(parse(text)[1])
    traced = traced_op(text, Tracer())
    untraced = run_op(text, Clock())
    assert traced.outcome == untraced.outcome == "rejected." + error
    assert traced.grouped_outcome == untraced.grouped_outcome == \
        "rejected." + error
    assert traced.created == untraced.created


def test_benchmark_data_are_copies_of_the_fixtures(fixture_dir):
    # tests/make_fixtures.py rewrites only tests/fixtures
    data = sorted((PERFBENCH / "data").glob("*.json"))
    assert len(data) == 8  # the four golden examples, two documents each
    for path in data:
        fixture = fixture_dir / path.name
        assert path.read_bytes() == fixture.read_bytes(), path.name
