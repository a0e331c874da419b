import json
import os
import random
import subprocess
import sys
from pathlib import Path

import enriques
from enriques import ArenaTree, serialize
from enriques.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
import randgen  # noqa: E402
from test_documents import _mutate, _random_document  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_clean(fixture_dir, capsys):
    code, out, err = run(capsys, "validate", str(fixture_dir / "ex04_bp.json"))
    assert code == 0


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "format_version": 1,
        "weight_kind": "virtual",
        "points": [
            {"id": "O", "weight": 2},
            {"id": "p1", "parent": "O", "weight": 2},
            {"id": "p2", "parent": "p1", "weight": 2},
            {"id": "p3", "parent": "p2", "second_proximity": "O",
             "weight": 1},
        ],
    }))
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "IllegalProximity" in out


def test_validate_bad_syntax(tmp_path, capsys):
    bad = tmp_path / "syntax.json"
    bad.write_text("{")
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2


def test_recover_table_and_trace(fixture_dir, capsys):
    code, out, err = run(
        capsys, "recover", str(fixture_dir / "ex04_bp.json"), "--trace")
    assert code == 0
    for line in ("p3 12/1 >I→first", "p4 21/2 <I→second",
                 "p5 33/3 =I stop"):
        assert line in out
    rows = [l.split("\t") for l in out.splitlines() if "\t" in l]
    assert rows[0] == ["d", "I_d", "p_d", "q_d"]
    assert ["p8", "11", "p3", "p5"] in rows
    assert ["p9", "11", "p3", "p5"] in rows


def test_recover_prints_trace_of_failed_run(tmp_path, capsys):
    # a +-1 perturbation of ex05: the walks finish, then the values force
    # a multiplicity of 0, and the trace shows the walks that led there
    doc = tmp_path / "bp.json"
    doc.write_text(json.dumps({
        "format_version": 1, "weight_kind": "virtual",
        "points": [{"id": "O", "weight": 2},
                   {"id": "p1", "parent": "O", "weight": 2},
                   {"id": "p2", "parent": "p1", "weight": 1},
                   {"id": "p3", "parent": "p2", "weight": 1},
                   {"id": "p4", "parent": "p3", "weight": 1}]}))
    error = "NonPositiveMultiplicity: values force multiplicity 0 at point 5\n"
    code, out, err = run(capsys, "recover", str(doc), "--trace")
    assert (code, err) == (1, error)
    assert out.splitlines() == [
        "p1 6/1 >I→first", "q#1 9/2 <I→second", "q#2 15/3 =I stop",
        "p2 8/1 =I stop"]
    assert run(capsys, "recover", str(doc)) == (1, "", error)


def test_recover_writes_documents(fixture_dir, tmp_path, capsys):
    out_file = tmp_path / "ex04_out.json"
    code, out, err = run(
        capsys, "recover", str(fixture_dir / "ex04_bp.json"),
        "--out", str(out_file), "--emit", "both")
    assert code == 0
    values_file = tmp_path / "ex04_out.values.json"
    mult_file = tmp_path / "ex04_out.multiplicities.json"
    assert values_file.exists() and mult_file.exists()
    doc = json.loads(values_file.read_text())
    assert doc["weight_kind"] == "value"
    weights = {e["id"]: e["weight"] for e in doc["points"]}
    assert weights["p5"] == 33 and weights["p3"] == 11


def test_recover_output_reproduces_invariants(fixture_dir, tmp_path, capsys):
    out_file = tmp_path / "ex06_S.json"
    code, out, err = run(
        capsys, "recover", str(fixture_dir / "ex06_bp.json"),
        "--out", str(out_file), "--emit", "multiplicities")
    assert code == 0
    table = {}
    for line in out.splitlines()[1:]:
        d, i_d, p_d, q_d = line.split("\t")
        table[d] = (i_d, q_d)
    assert table["p20"] == ("694/9", "p9")
    code, out, err = run(capsys, "validate", str(out_file))
    assert code == 0
    code, out, err = run(capsys, "invariants", str(out_file))
    assert code == 0
    got = dict(l.split("\t") for l in out.splitlines())
    assert got == {"p4": "236/3", "p5": "79", "p9": "694/9",
                   "p10": "72", "p11": "230/3"}


def test_recover_names_points_as_its_output_document(
        fixture_dir, tmp_path, capsys):
    # the walks of ex05 and of a fan create points; the trace and the
    # table print them under the ids --out writes, and invariants on that
    # document prints each row's rupture point with the row's invariant
    fan = tmp_path / "fan.json"
    fan.write_text(workloads.fan(23, random.Random(23)), encoding="utf-8")
    for source in (fixture_dir / "ex05_bp.json", fan):
        out_file = tmp_path / f"{source.stem}.S.json"
        code, out, err = run(
            capsys, "recover", str(source), "--trace", "--out", str(out_file),
            "--emit", "multiplicities")
        assert code == 0 and err == ""
        ids = {e["id"] for e in json.loads(out_file.read_text())["points"]}
        trace = [l.split(" ")[0] for l in out.splitlines() if "\t" not in l]
        rows = [l.split("\t") for l in out.splitlines() if "\t" in l][1:]
        assert any(name.startswith("q#") for name in trace)
        assert set(trace) <= ids
        assert {name for d, _, p, q in rows for name in (d, p, q)} <= ids
        code, out, err = run(capsys, "invariants", str(out_file))
        assert code == 0
        invariants = dict(l.split("\t") for l in out.splitlines())
        assert all(invariants[q] == i_d for _, i_d, _, q in rows)


def test_recover_rejects_curve_input(fixture_dir, capsys):
    code, out, err = run(capsys, "recover", str(fixture_dir / "ex04_S.json"))
    assert code == 2


def test_invariants_ex06(fixture_dir, capsys):
    code, out, err = run(
        capsys, "invariants", str(fixture_dir / "ex06_curve.json"))
    assert code == 0
    assert "694/9" in out
    assert "230/3" in out


def test_invariants_local(fixture_dir, capsys):
    code, out, err = run(
        capsys, "invariants", str(fixture_dir / "ex07_curve.json"),
        "--local", "p10")
    assert code == 0
    got = dict(l.split("\t") for l in out.splitlines())
    assert got == {"p13": "543/4", "p14": "678/5"}
    code, out, err = run(
        capsys, "invariants", str(fixture_dir / "ex07_curve.json"),
        "--local", "p99")
    assert (code, out, err) == (2, "", "no point named 'p99'\n")


def test_compare_similar_recovered_curves(fixture_dir, capsys):
    code, out, err = run(
        capsys, "compare", str(fixture_dir / "ex04_S.json"),
        str(fixture_dir / "ex05_S.json"), "--mode", "similar")
    assert code == 0
    digests = out.splitlines()
    assert len(digests) == 2 and digests[0] == digests[1]


def test_compare_dissimilar_base_points(fixture_dir, capsys):
    code, out, err = run(
        capsys, "compare", str(fixture_dir / "ex04_bp.json"),
        str(fixture_dir / "ex05_bp.json"), "--mode", "similar")
    assert code == 1


def test_compare_equal_mode(fixture_dir, capsys):
    a = str(fixture_dir / "ex04_S.json")
    code, out, err = run(capsys, "compare", a, a, "--mode", "equal")
    assert code == 0
    code, out, err = run(
        capsys, "compare", a, str(fixture_dir / "ex05_S.json"),
        "--mode", "equal")
    assert code == 1  # similar but not equal (labels differ)


def test_compare_encodes_each_cluster_once(fixture_dir, capsys, monkeypatch):
    from enriques import canonical_digest, parse, similarity

    encoded = []
    encode = similarity._encode
    monkeypatch.setattr(
        similarity, "_encode",
        lambda cluster: encoded.append(cluster) or encode(cluster))
    paths = [fixture_dir / name for name in ("ex04_S.json", "ex05_S.json")]
    digests = "".join(
        canonical_digest(parse(path.read_text(encoding="utf-8"))[1]) + "\n"
        for path in paths)
    for mode, want in (("similar", 0), ("equal", 1)):
        encoded.clear()
        code, out, err = run(capsys, "compare", *map(str, paths),
                             "--mode", mode)
        assert (code, out, err) == (want, digests, "")
        assert len(encoded) == 2, mode


def test_render_dot(fixture_dir, capsys):
    code, out, err = run(
        capsys, "render", str(fixture_dir / "ex04_bp.json"),
        "--annotate", "mn")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count(" -> ") == 9  # ten points, nine edges
    assert "21/2" in out  # height quotient annotation on p4
    assert '"p3" -> "p4" [style=bold];' in out
    assert '"p2" -> "p3" [style=solid];' in out


def test_render_heights_of_any_virtual_cluster(tmp_path, capsys):
    # m/n needs no base-point cluster: an inconsistent cluster, and one
    # whose weights are all 0, which compute refuses for its origin weight
    document = tmp_path / "virtual.json"
    for (w_o, w_p), (at_o, at_p) in (((1, 3), ("2/1", "6/1")),
                                     ((0, 0), ("1/1", "2/1"))):
        document.write_text(json.dumps({
            "format_version": 1, "weight_kind": "virtual",
            "points": [{"id": "O", "weight": w_o},
                       {"id": "p", "parent": "O", "weight": w_p}]}))
        code, out, err = run(capsys, "render", str(document),
                             "--annotate", "mn")
        assert (code, err) == (0, ""), (w_o, w_p)
        assert f'"O" [label="O\\n{at_o}"' in out
        assert f'"p" [label="p\\n{at_p}"' in out


def test_render_weights(fixture_dir, capsys):
    code, out, err = run(
        capsys, "render", str(fixture_dir / "y5x8_curve.json"),
        "--annotate", "weights")
    assert code == 0
    assert "subgraph overlay_0" in out


def test_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no_such_file.json")
    assert code == 2


def _one_line_error(code, err):
    assert code == 2
    assert err.count("\n") == 1 and "Traceback" not in err


def test_directory_as_input(tmp_path, capsys):
    code, out, err = run(capsys, "validate", str(tmp_path))
    _one_line_error(code, err)
    assert str(tmp_path) in err


def test_non_utf8_input(fixture_dir, tmp_path, capsys):
    doc = tmp_path / "latin1.json"
    doc.write_bytes(b'{"format_version": 1, "weight_kind": "virtual",'
                    b' "points": [{"id": "\xe9", "weight": 2}]}')
    good = str(fixture_dir / "ex04_S.json")
    for argv in (("validate", str(doc)), ("invariants", str(doc)),
                 ("compare", str(doc), str(doc)), ("compare", good, str(doc))):
        code, out, err = run(capsys, *argv)
        _one_line_error(code, err)
        assert "utf-8" in err and str(doc) in err


def test_wrong_kind_exits_2_with_the_library_message(fixture_dir, capsys):
    curve = str(fixture_dir / "ex04_S.json")
    bp = str(fixture_dir / "ex04_bp.json")
    for argv, message in [
            (("recover", curve), "expected a virtual cluster, got"
                                 " multiplicity"),
            (("invariants", bp), "expected a multiplicity cluster, got"
                                 " virtual"),
            (("render", curve, "--annotate", "mn"),
             "mn annotation needs a virtual cluster overlay")]:
        code, out, err = run(capsys, *argv)
        _one_line_error(code, err)
        assert (out, err) == ("", message + "\n"), argv


def test_recover_out_to_directory(fixture_dir, tmp_path, capsys):
    code, out, err = run(capsys, "recover", str(fixture_dir / "ex04_bp.json"),
                         "--out", str(tmp_path))
    _one_line_error(code, err)
    assert str(tmp_path) in err
    assert out.startswith("d\tI_d\tp_d\tq_d\n")  # the table printed first


def test_unreadable_file_through_the_module(tmp_path):
    completed = _run_module("validate", str(tmp_path), timeout=60)
    assert completed.returncode == 2
    assert "Traceback" not in completed.stderr


def _deep_free_chain(tmp_path, weight):
    points = [{"id": "p0", "weight": weight}] + [
        {"id": f"p{i}", "parent": f"p{i - 1}", "weight": weight}
        for i in range(1, 5000)]
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps({
        "format_version": 1, "weight_kind": "multiplicity",
        "points": points}))
    return str(doc)


def _run_module(*argv, timeout):
    src = str(Path(enriques.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "enriques.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout)


def test_compare_deep_free_chain(tmp_path):
    doc = _deep_free_chain(tmp_path, 1)
    proc = _run_module("compare", doc, doc, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    digests = proc.stdout.splitlines()
    assert len(digests) == 2 and digests[0] == digests[1]


def test_invariants_deep_free_chain(tmp_path):
    # the only rupture point is the top, where two smooth branches leave;
    # the bound is several times the run's own time (under a second)
    doc = _deep_free_chain(tmp_path, 2)
    proc = _run_module("invariants", doc, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "p4999\t10000\n"


def test_recover_deep_polar_writes_valid_documents(tmp_path, capsys):
    # polars of y^n = x^(1+j(n-1)) for n = 4,000, j = 2: two free points
    # of weight n - 1, and the walk creates 3,999 satellites
    doc = tmp_path / "polar.json"
    doc.write_text(json.dumps({
        "format_version": 1, "weight_kind": "virtual",
        "points": [{"id": "O", "weight": 3999},
                   {"id": "p1", "parent": "O", "weight": 3999}]}))
    out = tmp_path / "S.json"
    proc = _run_module("recover", str(doc), "--out", str(out),
                       "--emit", "both", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    for kind in ("values", "multiplicities"):
        written = tmp_path / f"S.{kind}.json"
        code, stdout, _ = run(capsys, "validate", str(written))
        assert code == 0, stdout
        assert len(json.loads(written.read_text())["points"]) == 2 + 3999


def test_every_command_maps_every_input_to_an_exit_code(
        fixture_dir, tmp_path, capsys):
    # no exception escapes main, whatever the document and the command
    syntax = tmp_path / "syntax.json"
    syntax.write_text('{"format_version": 1, "points": [')
    illegal = tmp_path / "illegal.json"  # p3's second proximity is not one
    illegal.write_text(json.dumps({
        "format_version": 1, "weight_kind": "virtual",
        "points": [{"id": "O", "weight": 2},
                   {"id": "p1", "parent": "O", "weight": 2},
                   {"id": "p2", "parent": "p1", "weight": 2},
                   {"id": "p3", "parent": "p2", "second_proximity": "O",
                    "weight": 1}]}))
    deep = tmp_path / "deep.json"  # json.loads raises RecursionError on it
    deep.write_text("[" * 200_000 + "]" * 200_000)
    kind = tmp_path / "kind.json"  # an unhashable weight_kind
    kind.write_text('{"format_version": 1, "weight_kind": [], "points": []}')
    # json.loads raises a bare ValueError on an integer past Python's limit
    # on the digits of an int parsed from a string
    long = tmp_path / "long.json"
    long.write_text('{"format_version": 1, "weight_kind": "virtual",'
                    ' "points": [{"id": "O", "weight": 1' + "0" * 5000 + '}]}')
    malformed = {deep: "not valid JSON: nested too deeply",
                 kind: "UnknownWeightKind: weight_kind must be one of",
                 long: "not valid JSON: an integer has more than"}
    commands = [("recover",), ("invariants",), ("invariants", "--local", "p1")]
    commands += [("render", "--annotate", a)
                 for a in ("mn", "weights", "none")]
    codes = set()
    documents = sorted(fixture_dir.glob("*.json")) + [syntax, illegal]
    for document in documents + list(malformed):
        for command, *options in commands:
            code, out, err = run(capsys, command, str(document), *options)
            assert code in (0, 1, 2), (command, options, document.name)
            assert (code == 0) == (err == ""), (command, document.name)
            codes.add(code)
            if document == syntax:
                _one_line_error(code, err)
                assert err.startswith("not valid JSON")
            elif document == illegal:
                assert (code, out) == (2, "")
                assert err.startswith("IllegalProximity at point 3: ")
            elif document in malformed:
                _one_line_error(code, err)
                assert err.startswith(malformed[document])
    assert codes == {0, 2}
    for document, message in malformed.items():
        code, out, err = run(capsys, "validate", str(document))
        assert (code, err) == (2, "") and out.count("\n") == 1
        assert out.startswith(message)
        code, out, err = run(capsys, "compare", str(document), str(document))
        _one_line_error(code, err)
        assert out == "" and err.startswith(message)


def test_numbers_past_the_digit_limit_exit_1_without_traceback(
        tmp_path, capsys):
    # the document parses, since its weight has as many digits as Python
    # reads into an int, but the recovered invariant and values and the
    # m/n heights have more than Python writes back as text
    limit = sys.get_int_max_str_digits()
    document = tmp_path / "long.json"
    document.write_text(json.dumps({
        "format_version": 1, "weight_kind": "virtual",
        "points": [{"id": "O", "weight": int("9" * limit)},
                   {"id": "p", "parent": "O", "weight": 1}]}))
    written = tmp_path / "out.json"
    for argv in (["recover"], ["recover", "--trace"],
                 ["recover", "--out", str(written), "--emit", "both"],
                 ["render", "--annotate", "mn"]):
        code, out, err = run(capsys, argv[0], str(document), *argv[1:])
        assert (code, out) == (1, ""), argv
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err == (f"NumberTooLong: cannot write <{limit + 1} digits>:"
                       f" Python writes no integer of more than {limit}"
                       " digits\n")
    assert list(tmp_path.iterdir()) == [document]
    code, out, err = run(capsys, "render", str(document),
                         "--annotate", "weights")
    assert (code, err) == (0, "") and "9" * limit in out


def test_out_of_memory_exits_1_without_traceback(
        fixture_dir, capsys, monkeypatch):
    # a walk run below sys.maxsize points is allocated in full, so a long
    # enough one runs out of memory; no test allocates that much
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(enriques.recovery, "recover", exhausted)
    code, out, err = run(capsys, "recover", str(fixture_dir / "ex04_bp.json"))
    assert (code, out, err) == (1, "", "MemoryError: out of memory\n")


def test_recover_refuses_a_walk_run_longer_than_a_list_holds(
        tmp_path, capsys):
    # the walk's second run would hold about 10**30 points
    weight = 10 ** 30
    document = tmp_path / "huge.json"
    document.write_text(json.dumps({
        "format_version": 1, "weight_kind": "virtual",
        "points": [{"id": "O", "weight": weight},
                   {"id": "p", "parent": "O", "weight": weight}]}))
    code, out, err = run(capsys, "recover", str(document))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("WalkDiverged: the run below point 2 would take")


def _fuzz_documents(rng, count):
    """JSON texts: random documents, consistent base points and curves,
    some mutated, and some with one extreme value: an integer literal at
    or past the digit limit, ``NaN`` or ``Infinity`` in a numeric field,
    deep nesting, a huge label, or labels that collide with the ``q#N``
    names of created points.

    A document holds at most one extreme number and its other weights are
    small, so no walk run it starts is long: a run that would outgrow a
    list is refused before it is written."""
    limit = sys.get_int_max_str_digits()
    numbers = ["9" * limit, "-" + "9" * limit, "1" + "0" * limit,
               "NaN", "Infinity", "-Infinity"]
    for i in range(count):
        source = rng.randrange(4)
        if source == 0:
            cluster = randgen.random_consistent_bp(i)
        elif source == 1:
            cluster = randgen.random_curve(i)
        else:
            cluster = _random_document(rng)[1]
        doc = json.loads(serialize(cluster.tree, cluster))
        if rng.random() < 0.3:
            _mutate(doc, rng)
        points = doc.get("points")
        entries = ([e for e in points if isinstance(e, dict)]
                   if isinstance(points, list) else [])
        extreme = rng.randrange(8)
        if extreme == 0 and entries:  # one field of one entry
            rng.choice(entries)[rng.choice(
                ("weight", "parent", "second_proximity", "id",
                 "label"))] = "@"
        elif extreme == 1:
            doc["format_version"] = "@"
        elif extreme == 2 and entries:
            rng.choice(entries)["weight"] = [[]]
        elif extreme == 3 and entries:
            _rename(entries, {rng.choice(entries).get("id"): "p" * 100_000})
        elif extreme == 4:
            names = [f"q#{k}" for k in range(1, len(entries) + 1)]
            rng.shuffle(names)
            _rename(entries, dict(zip([e.get("id") for e in entries], names)))
        text = json.dumps(doc)
        yield (text.replace('"@"', rng.choice(numbers))
               .replace("[[]]", "[" * 100_000 + "]" * 100_000))


def _rename(entries, names):
    """Give the entries new ids, and their references the same names."""
    for entry in entries:
        for field in ("id", "parent", "second_proximity"):
            value = entry.get(field)
            if isinstance(value, str) and value in names:
                entry[field] = names[value]


def test_cli_fuzz_exits_0_1_or_2_without_traceback(
        tmp_path, capsys, monkeypatch):
    # every command over random, mutated and extreme documents: main
    # returns an exit code and lets only argparse's SystemExit through
    append_run = ArenaTree._append_run

    def short_run(tree, a, s, t):
        assert t <= 10_000, f"the input starts a walk run of {t} points"
        return append_run(tree, a, s, t)

    monkeypatch.setattr(ArenaTree, "_append_run", short_run)
    rng = random.Random(20261019)
    previous = tmp_path / "previous.json"
    previous.write_text("{}")
    out = tmp_path / "out.json"
    codes = set()
    for i, text in enumerate(_fuzz_documents(rng, 300)):
        document = tmp_path / f"doc{i}.json"
        document.write_text(text, encoding="utf-8")
        name = str(document)
        for argv in (
                ["validate", name],
                ["recover", name, *rng.choice(
                    ([], ["--trace"],
                     ["--out", str(out), "--emit", "both"]))],
                ["render", name, "--annotate",
                 rng.choice(("mn", "weights", "none"))],
                ["invariants", name, *rng.choice(
                    ([], ["--local", rng.choice(("O", "p1", "q#1"))]))],
                ["compare", name, str(previous), "--mode",
                 rng.choice(("equal", "similar"))]):
            try:
                code = main(argv)
            except SystemExit as exit:  # argparse refused the arguments
                code = exit.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            codes.add(code)
        previous = document
    assert codes == {0, 1, 2}
