"""One benchmark op, its correctness gates, and the span tracer.

An op is: parse the document into a fresh arena, ``recover``, verify
(oracle closure plus canonical digest), serialize the values; then
``recover_grouped`` on a second fresh parse.  :func:`run_op` times each
public call with tracing off.  :func:`traced_op` runs the same op with
``recover`` decomposed into its public steps and records one span per
call; its result must equal the untraced ``recover`` exactly.

Outcomes: ``ok``; ``mismatch`` (a result the oracle does not close on);
``rejected.<Class>`` (a typed :class:`EnriquesError`, a finished op); and
``failed.<Class>`` (any other exception, ``RecursionError`` included).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple, Optional

from enriques import (
    DicriticalAssociation,
    RecoveryResult,
    base_free_point,
    canonical_digest,
    compute,
    dicritical_invariant,
    dicritical_points,
    invariant_quotient,
    is_consistent,
    multiplicities_from_values,
    parse,
    recover,
    recover_grouped,
    recover_values,
    rupture_points,
    satellite_walk,
    serialize,
)
from enriques.errors import EnriquesError, InconsistentCluster, RecoveryError

class Tracer:
    """In-memory spans ``(op, name, start, end)``; op-level spans are roots.

    ``span`` is a context manager, so a traced call runs at the same stack
    depth as the untraced one (deep inputs hit the interpreter's recursion
    limit at the same size either way).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float]] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op, name, start, perf_counter()))


class NoTracer:
    def span(self, name: str):
        return nullcontext()


NO_TRACE = NoTracer()


class Facts(NamedTuple):
    """Everything a repeat of an op must reproduce exactly."""

    outcome: str
    points: int
    created: int
    digest: Optional[str]
    grouped_outcome: Optional[str]
    #: Counted by the traced op only (0 untraced).
    walk_steps: int
    dicriticals: int


@dataclass
class Op:
    outcome: str = "failed"
    #: Raw seconds of the op's timed calls.
    op_s: float = 0.0
    #: Untraced ops: each timed call by name ("recover", "verify", ...).
    laps: dict = field(default_factory=dict)
    points: int = 0
    created: int = 0
    digest: Optional[str] = None
    grouped_outcome: Optional[str] = None
    #: Counted by the traced op only.
    walk_steps: int = 0
    dicriticals: int = 0
    #: The op's own arena after ``recover``, kept for the first-visit gates.
    bp: object = field(default=None, repr=False)
    result: Optional[RecoveryResult] = field(default=None, repr=False)
    error: Optional[BaseException] = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return self.outcome.startswith("failed")

    def facts(self) -> Facts:
        return Facts(self.outcome, self.points, self.created, self.digest,
                     self.grouped_outcome, self.walk_steps, self.dicriticals)


def _rejected(err: EnriquesError) -> str:
    return "rejected." + type(err).__name__


def verify(result: RecoveryResult, tracer) -> tuple[bool, str]:
    """Oracle closure and canonical digest of a recovered singular cluster."""
    curve = result.multiplicities
    closed = True
    with tracer.span("oracle.rupture_points"):
        try:
            closed = rupture_points(curve) == set(result.rupture)
        except EnriquesError:
            closed = False
    with tracer.span("oracle.invariant_quotient"):
        for assoc in result.association.values():
            if invariant_quotient(curve, assoc.rupture_point) != assoc.invariant:
                closed = False
    with tracer.span("similarity.canonical"):
        digest = canonical_digest(curve)
    return closed, digest


def run_op(text: str, clock) -> Op:
    """The op with tracing off: each public call timed on ``clock``."""
    op = Op()
    laps = op.laps
    try:
        start = perf_counter()
        _, bp = parse(text)
        laps["parse"] = clock.lap(start)
        op.points = before = len(bp.tree)
        start = perf_counter()
        try:
            result = recover(bp)
        except EnriquesError as err:
            laps["recover"] = clock.lap(start)
            op.outcome, op.error = _rejected(err), err
        else:
            laps["recover"] = clock.lap(start)
            start = perf_counter()
            closed, digest = verify(result, NO_TRACE)
            laps["verify"] = clock.lap(start)
            start = perf_counter()
            serialize(bp.tree, result.values)
            laps["serialize"] = clock.lap(start)
            op.outcome = "ok" if closed else "mismatch"
            op.result, op.digest = result, digest
        op.bp, op.created = bp, len(bp.tree) - before
        start = perf_counter()
        _, bp2 = parse(text)
        laps["grouped_parse"] = clock.lap(start)
        start = perf_counter()
        try:
            recover_grouped(bp2)
            op.grouped_outcome = "ok"
        except EnriquesError as err:
            op.grouped_outcome = _rejected(err)
        laps["grouped"] = clock.lap(start)
    except Exception as err:  # the op boundary: anything else fails the op
        op.outcome, op.error = "failed." + type(err).__name__, err
    op.op_s = sum(lap.raw for lap in laps.values())
    return op


def _decomposed_recover(bp, tracer: Tracer, op: Op) -> RecoveryResult:
    """``recover`` spelled out through its public steps, one span each."""
    tree = bp.tree
    before = len(tree)

    def count_step(entry) -> None:
        op.walk_steps += entry[3] != "stop"

    with tracer.span("morphism.compute"):
        inv = compute(bp)
    with tracer.span("cluster.dicritical_points"):
        dicriticals = sorted(dicritical_points(bp))
    with tracer.span("arena.queries"):
        origin = tree.origin
    op.dicriticals = len(dicriticals)
    rupture = set()
    association: dict[int, DicriticalAssociation] = {}
    for d in dicriticals:
        with tracer.span("recovery.invariant"):
            invariant = dicritical_invariant(bp, inv, d)
        if d == origin:
            rupture.add(origin)
            association[d] = DicriticalAssociation(invariant, origin, origin)
            continue
        with tracer.span("recovery.base_free_point"):
            _, p = base_free_point(bp, inv, d, invariant)
        with tracer.span("recovery.walk"):
            q = satellite_walk(tree, inv, p, invariant, count_step)
        rupture.add(q)
        association[d] = DicriticalAssociation(invariant, p, q)
    with tracer.span("arena.queries"):
        singular = frozenset(a for q in rupture for a in tree.ancestors(q))
    created = frozenset(range(before, len(tree)))
    with tracer.span("recovery.values"):
        values = recover_values(bp, inv, frozenset(rupture), singular)
    with tracer.span("cluster.conversion"):
        multiplicities = multiplicities_from_values(values)
    with tracer.span("cluster.consistency"):
        consistent = is_consistent(multiplicities)
    if not consistent:
        raise InconsistentCluster("recovered multiplicities are not consistent")
    with tracer.span("morphism.quotient_check"):
        for d, assoc in association.items():
            if inv.height_quotient(assoc.rupture_point) != assoc.invariant:
                raise RecoveryError(f"height quotient mismatch at {d}")
    return RecoveryResult(frozenset(rupture), singular, values, multiplicities,
                          association, created)


def traced_op(text: str, tracer: Tracer) -> Op:
    """The op with one span per public call, under one root span ``op``."""
    op = Op()
    start = perf_counter()
    with tracer.span("op"):
        try:
            with tracer.span("documents.parse"):
                _, bp = parse(text)
            op.points = before = len(bp.tree)
            try:
                result = _decomposed_recover(bp, tracer, op)
            except EnriquesError as err:
                op.outcome, op.error = _rejected(err), err
            else:
                closed, digest = verify(result, tracer)
                with tracer.span("documents.serialize"):
                    serialize(bp.tree, result.values)
                op.outcome = "ok" if closed else "mismatch"
                op.result, op.digest = result, digest
            op.bp, op.created = bp, len(bp.tree) - before
            with tracer.span("documents.parse"):
                _, bp2 = parse(text)
            with tracer.span("recovery.grouped"):
                try:
                    recover_grouped(bp2)
                    op.grouped_outcome = "ok"
                except EnriquesError as err:
                    op.grouped_outcome = _rejected(err)
        except Exception as err:  # the op boundary: anything else fails the op
            op.outcome, op.error = "failed." + type(err).__name__, err
    op.op_s = perf_counter() - start
    return op


def result_key(result: RecoveryResult) -> tuple:
    """A recovery result in arena-independent form, for exact comparison."""
    tree = result.values.tree
    return (
        [(tree.parent(p), tree.second_proximity(p)) for p in tree.points()],
        result.rupture, result.singular, result.association, result.created,
        dict(result.values.weight), dict(result.multiplicities.weight),
    )


@dataclass
class Checked:
    """First-visit gates of one input, run outside the timed region."""

    problems: list[str]
    warm_s: float = 0.0
    grouped_walks: int = 0
    grouped_walks_avoided: int = 0
    fallbacks: int = 0


def check_input(op: Op, expected: Optional[str]) -> Checked:
    """The golden digest, and grouped/basic agreement on the op's own arena.

    A golden fixture whose op failed has no digest, so it fails the gate.

    The warm ``recover_grouped`` runs on the arena ``recover`` already
    extended, as acceptance criterion 5 does; its walks are counted from
    the trace callback and its shortcut fallbacks from the warnings.
    """
    checked = Checked([])
    if expected is not None:
        _, curve = parse(expected)
        if op.digest != canonical_digest(curve):
            checked.problems.append(
                f"golden digest mismatch ({op.outcome})")
    if op.failed or op.bp is None:
        return checked
    walks = 0

    def count_walk(entry) -> None:
        nonlocal walks
        walks += entry[3] == "stop"

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        start = perf_counter()
        try:
            warm = recover_grouped(op.bp, count_walk)
        except Exception as err:  # compared with what recover did, below
            warm = err
        checked.warm_s = perf_counter() - start
    checked.fallbacks = sum(
        issubclass(w.category, RuntimeWarning) for w in caught)
    if op.result is not None:
        if not (isinstance(warm, RecoveryResult) and warm.same_result(op.result)):
            checked.problems.append(
                f"recover_grouped disagrees with recover ({warm!r:.80})")
        else:
            origin = op.bp.tree.origin
            walked = len(op.result.association) - (origin in op.result.association)
            checked.grouped_walks = walks
            checked.grouped_walks_avoided = walked - walks
    elif not isinstance(warm, type(op.error)):
        checked.problems.append(
            f"recover raised {type(op.error).__name__},"
            f" recover_grouped gave {warm!r:.80}")
    return checked
