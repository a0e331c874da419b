import json
import os
import subprocess
import sys
from pathlib import Path

import enriques
from enriques.cli import main


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
        "--algorithm", "grouped", "--out", str(out_file),
        "--emit", "multiplicities")
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


def test_render_weights(fixture_dir, capsys):
    code, out, err = run(
        capsys, "render", str(fixture_dir / "y5x8_curve.json"),
        "--annotate", "weights")
    assert code == 0
    assert "subgraph overlay_0" in out


def test_missing_file(capsys):
    code, out, err = run(capsys, "validate", "no_such_file.json")
    assert code == 2


def test_compare_deep_free_chain(tmp_path):
    points = [{"id": "p0", "weight": 1}] + [
        {"id": f"p{i}", "parent": f"p{i - 1}", "weight": 1}
        for i in range(1, 5000)]
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps({
        "format_version": 1, "weight_kind": "multiplicity",
        "points": points}))
    src = str(Path(enriques.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "enriques.cli", "compare", str(doc), str(doc)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    digests = proc.stdout.splitlines()
    assert len(digests) == 2 and digests[0] == digests[1]
