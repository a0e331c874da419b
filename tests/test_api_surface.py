"""The package's public names and error classes, pinned so that adding or
removing one is a deliberate edit of these lists; a guard that every
public name has a caller outside the tests or is a pinned entry point;
and the typed errors its point-taking functions raise on an argument that
names no point."""

import ast
import copy
import importlib.util
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import enriques
from enriques import (
    ArenaTree,
    DicriticalAssociation,
    WeightKind,
    WeightedCluster,
    base_free_point,
    compute,
    dicritical_invariant,
    invariant_quotient,
    recover_values,
    rupture_points,
    rupture_quotients,
    satellite_walk,
    unibranch_chain,
)
from enriques import arena, errors
from enriques.errors import (
    ArenaError,
    ArenaValidationError,
    Diagnostic,
    EnriquesError,
    WrongKind,
)
import fixture_builders as fb

PUBLIC_NAMES = [
    "ArenaTree",
    "DicriticalAssociation",
    "MorphismInvariants",
    "PointFacts",
    "PointId",
    "RecoveryResult",
    "WeightKind",
    "WeightedCluster",
    "are_similar",
    "arena",
    "base_free_point",
    "canonical_digest",
    "canonical_form",
    "cluster",
    "compute",
    "dicritical_invariant",
    "dicritical_points",
    "documents",
    "errors",
    "excesses",
    "invariant_quotient",
    "is_consistent",
    "multiplicities_from_values",
    "noether_pairing",
    "oracle",
    "parse",
    "recover",
    "recover_grouped",
    "recover_values",
    "recovery",
    "rupture_points",
    "rupture_quotients",
    "satellite_walk",
    "serialize",
    "similarity",
    "unibranch_chain",
]


def test_public_names_are_pinned():
    assert sorted(enriques.__all__) == PUBLIC_NAMES
    assert all(hasattr(enriques, name) for name in PUBLIC_NAMES)


ROOT = Path(__file__).resolve().parent.parent

#: Public names that stay public without a caller in another library
#: module or in the benchmark, each with the reason.
ENTRY_POINTS = {
    "parse": "reads a cluster document, where every use starts",
    "serialize": "writes a cluster document, the inverse of parse",
    "recover": "the paper's algorithm, the library's main entry point",
    "PointFacts": "the type of ArenaTree.facts, a point's facts as a view",
    "are_similar": "similarity of two clusters, which canonical_form decides",
    "noether_pairing": "the paper's pairing, which invariant_quotient sweeps",
    "unibranch_chain": "the paper's chain cluster, which invariant_quotient"
                       " and rupture_quotients sweep without building it",
}


def _references(path: Path) -> set[str]:
    """The package names a file's code imports, or reads as attributes of
    a package module it imports; docstrings and comments are no code."""
    modules = {"enriques", *(name for name in enriques.__all__ if
                             isinstance(getattr(enriques, name),
                                        types.ModuleType))}
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "enriques"):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names.add(node.attr)
    return names


def test_every_public_name_is_used_or_an_entry_point():
    # the surface cannot grow back: a public name is imported by another
    # library module or by the benchmark, or it is a pinned entry point
    package = ROOT / "src" / "enriques"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    home = {alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {}
    for path in sorted(package.glob("*.py")):
        if path.stem != "__init__":
            for name in _references(path):
                used.setdefault(name, set()).add(path.stem)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for name in _references(path):
            used.setdefault(name, set()).add("perfbench")
    unused = [name for name in enriques.__all__ if name not in ENTRY_POINTS
              and not used.get(name, set()) - {home.get(name, name)}]
    assert unused == []
    assert set(ENTRY_POINTS) <= set(enriques.__all__)


def test_readme_names_only_public_names_and_modules():
    # a retired name must not stay in the documentation
    readme = ROOT / "README.md"
    text = readme.read_text(encoding="utf-8")
    mentioned = set(re.findall(r"\benriques\.(\w+)", text))
    assert len(mentioned) > 10
    unresolved = [name for name in sorted(mentioned - set(enriques.__all__))
                  if importlib.util.find_spec(f"enriques.{name}") is None]
    assert unresolved == []


#: A Sphinx cross-reference in a docstring: its role and its target.
DOC_REFERENCE = re.compile(r":(func|class|meth|mod):`~?([\w.]+)`")


def _resolves(module: types.ModuleType, role: str, target: str) -> bool:
    """Whether a reference in ``module``'s docstrings names an object: by
    its ``enriques.`` path, in the module itself, or, for a bare
    ``:meth:``, as a method of a class the module defines."""
    def walk(obj, names):
        for name in names:
            if hasattr(obj, name):
                obj = getattr(obj, name)
            elif hasattr(obj, "__path__"):  # a package's unimported module
                try:
                    obj = importlib.import_module(f"{obj.__name__}.{name}")
                except ImportError:
                    return False
            else:
                return False
        return True
    names = target.split(".")
    if names[0] == "enriques":
        return walk(enriques, names[1:])
    if walk(module, names):
        return True
    return role == "meth" and len(names) == 1 and any(
        isinstance(cls, type) and cls.__module__ == module.__name__
        and hasattr(cls, target) for cls in vars(module).values())


def test_docstring_references_resolve():
    # a reference to a name the module neither defines nor imports reads
    # as a link in the source and resolves to nothing
    checked, unresolved = 0, []
    for path in sorted((ROOT / "src" / "enriques").glob("*.py")):
        module = importlib.import_module(
            "enriques" if path.stem == "__init__" else f"enriques.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for role, target in DOC_REFERENCE.findall(
                    ast.get_docstring(node, clean=False) or ""):
                checked += 1
                if not _resolves(module, role, target):
                    unresolved.append((path.stem, role, target))
    assert checked > 50
    assert unresolved == []


#: The private names of ``enriques.arena`` that each other library module
#: reads; every other module reads the arena through its public surface.
ARENA_PRIVATE_READERS = {
    "documents": {"_from_columns"},
    "oracle": {"_check"},
    "recovery": {"_append_run", "_check", "_runs"},
}


def test_only_pinned_modules_read_private_arena_names():
    # the arena's private writers and records stay behind these readers,
    # so a new reader of, say, the pair index is a deliberate edit here
    private = {name for name in (*vars(arena), *vars(ArenaTree),
                                 *vars(ArenaTree()))
               if name.startswith("_") and not name.endswith("__")}
    assert {"_satellite_index", "_satellite_pair", "_violations"} <= private
    reads = {}
    for path in sorted((ROOT / "src" / "enriques").glob("*.py")):
        if path.stem in ("arena", "__init__"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & private:
                reads.setdefault(path.stem, set()).update(names & private)
    assert reads == ARENA_PRIVATE_READERS


#: Every exception class of ``enriques.errors`` with its direct base.
ERROR_CLASSES = [
    ("ArenaError", "EnriquesError"),
    ("ArenaMismatch", "ClusterError"),
    ("ArenaValidationError", "ArenaError"),
    ("ClusterError", "EnriquesError"),
    ("DocumentError", "EnriquesError"),
    ("DocumentSyntaxError", "DocumentError"),
    ("DocumentValidationError", "DocumentError"),
    ("DuplicateOrigin", "ArenaError"),
    ("DuplicateSatellite", "ArenaError"),
    ("EmptyRuptureSet", "RecoveryError"),
    ("EnriquesError", "Exception"),
    ("IllegalProximity", "ArenaError"),
    ("InconsistentCluster", "EnriquesError"),
    ("InvalidLabel", "ArenaError"),
    ("InvalidWeight", "ClusterError"),
    ("NegativeResidual", "EnriquesError"),
    ("NoQualifyingPair", "RecoveryError"),
    ("NonPositiveMultiplicity", "ClusterError"),
    ("NotDicritical", "RecoveryError"),
    ("NotDownwardClosed", "ClusterError"),
    ("NumberTooLong", "EnriquesError"),
    ("PointNotInCluster", "ClusterError"),
    ("RecoveryError", "EnriquesError"),
    ("SelfReference", "ArenaError"),
    ("UnknownParent", "ArenaError"),
    ("UnknownPoint", "ArenaError"),
    ("WalkDiverged", "RecoveryError"),
    ("WrongKind", "ClusterError"),
]


def _error_classes() -> list[type]:
    return [cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, BaseException)
            and cls.__module__ == errors.__name__]


def test_error_classes_are_pinned():
    classes = _error_classes()
    assert all(len(cls.__bases__) == 1 for cls in classes)
    assert sorted((cls.__name__, cls.__base__.__name__)
                  for cls in classes) == ERROR_CLASSES


def test_every_error_class_groups_two_or_is_named_by_a_module():
    # a base with one subclass groups nothing its subclass does not, and
    # a leaf class that no other library module names is never raised
    classes = _error_classes()
    named = set()
    for path in (ROOT / "src" / "enriques").glob("*.py"):
        if path.stem != "errors":
            named |= _references(path)
    lone_bases, unnamed = [], []
    for cls in classes:
        subclasses = [c for c in classes if c.__base__ is cls]
        if len(subclasses) == 1:
            lone_bases.append(cls.__name__)
        elif not subclasses and cls.__name__ not in named:
            unnamed.append(cls.__name__)
    assert lone_bases == [] and unnamed == []


#: Arguments that name no point: a bool and a float equal an int id, -1 and
#: 999 lie outside the arena, a label is no id, and None is nothing.
BAD_IDS = (True, -1, 999, "3", 3.0, None)


def test_bad_point_ids_and_kinds_raise_typed_errors():
    tree, bp, names = fb.ex04_bp()
    _, curve, _ = fb.ex04_curve()
    inv = compute(bp)
    calls = {
        "ArenaTree.parent": lambda x: tree.parent(x),
        "ArenaTree.second_proximity": lambda x: tree.second_proximity(x),
        "ArenaTree.facts": lambda x: tree.facts(x),
        "ArenaTree.ancestors": lambda x: tree.ancestors(x),
        "ArenaTree.add_point": lambda x: tree.add_point(x),
        "WeightedCluster": lambda x: WeightedCluster(
            tree, WeightKind.VIRTUAL, {x: 1}),
        "WeightedCluster[]": lambda x: bp[x],
        "unibranch_chain": lambda x: unibranch_chain(tree, x),
        "MorphismInvariants.extend_to": lambda x: inv.extend_to(x),
        "MorphismInvariants.height_quotient": lambda x: inv.height_quotient(x),
        "dicritical_invariant": lambda x: dicritical_invariant(bp, inv, x),
        "base_free_point": lambda x: base_free_point(
            bp, inv, x, Fraction(11)),
        "satellite_walk": lambda x: satellite_walk(
            tree, inv, x, Fraction(11)),
        "recover_values": lambda x: recover_values(
            bp, inv, frozenset({x}), frozenset({x})),
        "invariant_quotient": lambda x: invariant_quotient(curve, x),
        "rupture_quotients": lambda x: rupture_quotients(curve, x),
    }
    size = len(tree)
    answered = []
    for bad in BAD_IDS:
        for name, call in calls.items():
            if name == "rupture_quotients" and bad is None:
                continue  # None is its default: no base point, all quotients
            try:
                got = call(bad)
            except EnriquesError:
                continue
            answered.append((name, bad, got))
        # the queries that answer for a point they do not know
        assert tree.find_satellite(bad, 0) is None
        assert bp.get(bad) == 0 and bp.get(bad, -7) == -7
        assert bad not in bp and bad not in curve
    assert answered == []
    assert len(tree) == size  # no failed call appended a point
    # an arena that holds the pair (1, 0), which True and 1.0 equal as a
    # dict key, and an unhashable id, which no dict lookup takes
    pair = ArenaTree()
    q = pair.add_point(pair.add_point(pair.add_point()), 0)
    assert pair.find_satellite(1, 0) == q
    for bad in (*BAD_IDS, 1.0, [1]):
        assert pair.find_satellite(bad, 0) is None
    for bad in (False, 0.0, [0]):
        assert pair.find_satellite(1, bad) is None
    # the writers refuse a bad parent or second proximity and write nothing:
    # a bool, a float, a negative id, the new point itself and a later one,
    # each with a parent at which the id, read as an int, would be a legal
    # second proximity (p2 is proximate to 1, p3 to 2)
    columns = (tree.parents, tree.seconds, tree.labels,
               tree.free_points, tree.ns, tree.m0s, tree.ks, tree.pairs,
               tree._satellite_index)
    before = copy.deepcopy(columns)
    records = list(zip(tree.parents, tree.seconds, tree.labels))
    p2, p3 = names["p2"], names["p3"]
    writes = []
    for bad, a in ((True, p2), (2.0, p3), (-1, p3), (size, p3),
                   (size + 1, p3)):
        writes += [
            (lambda bad=bad: tree.add_point(bad)),
            (lambda bad=bad, a=a: tree.add_point(a, bad)),
            (lambda bad=bad: ArenaTree.from_records(
                records + [(bad, None, None)])),
            (lambda bad=bad, a=a: ArenaTree.from_records(
                records + [(a, bad, None)])),
        ]
    for write in writes:
        with pytest.raises(EnriquesError):
            write()
        assert len(tree) == size and columns == before
    # a base-point cluster is no curve: the oracle refuses it, not answers
    for call in (lambda: rupture_points(bp), lambda: rupture_quotients(bp)):
        with pytest.raises(WrongKind, match="got virtual"):
            call()
    assert set(rupture_quotients(curve).values()) == {11}  # a curve passes


def test_calls_on_a_broken_point_raise_not_hang():
    # point 1 is its own parent, and in the second arena points 1 and 2
    # are each other's parent, so their parent links never reach the
    # origin; in the third, point 2 names a second proximity that is no
    # point.  No arena holds such a point, so no call can be given one
    for records, want in (
            ([(None, None, "O"), (1, None, "a")],
             [Diagnostic("SelfReference", 1, "point references itself")]),
            ([(None, None, "O"), (2, None, "a"), (1, None, "b")],
             [Diagnostic("UnknownParent", 1,
                         "parent 2 does not precede the point")]),
            ([(None, None, "O"), (0, None, "a"), (1, 5, "b")],
             [Diagnostic("UnknownPoint", 2,
                         "second proximity 5 does not precede the point")])):
        with pytest.raises(ArenaValidationError) as info:
            ArenaTree.from_records(records)
        assert info.value.diagnostics == want


def test_dicritical_association_is_an_immutable_tuple():
    a = DicriticalAssociation(Fraction(7, 2), 3, 5)
    assert repr(a) == ("DicriticalAssociation(invariant=Fraction(7, 2),"
                       " base_free_point=3, rupture_point=5)")
    assert (a.invariant, a.base_free_point, a.rupture_point) == tuple(a)
    assert a == DicriticalAssociation(Fraction(7, 2), 3, 5) == (
        Fraction(7, 2), 3, 5)
    assert a != DicriticalAssociation(Fraction(7, 2), 3, 6)
    assert hash(a) == hash((Fraction(7, 2), 3, 5))
    for field in ("invariant", "base_free_point", "rupture_point"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
