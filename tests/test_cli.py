"""Command-line behavior: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from onemotives.cli import main, parse_inline_spec
from onemotives.crystal import OneMotiveSpec, module_from_jsonable, module_to_jsonable

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_kummer_json(capsys):
    code, out, _ = run_cli(
        capsys, "realize", "--p", "5", "--f", "1", "--lattice", "1", "--torus", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 2
    assert obj["phi"]["entries"] == ["1/1", "0/1", "0/1", "5/1"]
    assert obj["weights"] == [[0, 1], [-2, 1]]
    assert obj["fil1"]["entries"] == ["0/1", "1/1"]


def test_realize_empty_spec_is_zero_module(capsys):
    code, out, _ = run_cli(capsys, "realize", "--p", "5", "--f", "1")
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_realize_hasse_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "realize", "--p", "5", "--f", "1", "--elliptic", "7")
    assert code == 2
    assert "t^2" in err


def test_realize_bad_prime_exits_2(capsys):
    code, _, err = run_cli(capsys, "realize", "--p", "6", "--f", "1", "--lattice", "1")
    assert code == 2
    assert "not prime" in err


def test_realize_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "realize", "--p", "5", "--f", "1", "--lattice", "1", "--elliptic", "1"
    )
    assert code == 0
    obj = json.loads(out)
    module = module_from_jsonable(obj)
    assert module_to_jsonable(module) == obj


def test_end_kummer(capsys):
    code, out, _ = run_cli(capsys, "end", "--p", "5", "--f", "1", "--lattice", "1", "--torus", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 2
    assert obj["classification"] == "lattice_scalars+torus_scalars"


def test_end_ordinary(capsys):
    code, out, _ = run_cli(
        capsys, "end", "--p", "5", "--f", "1", "--lattice", "1", "--elliptic", "1"
    )
    obj = json.loads(out)
    assert obj["dimension"] == 3
    assert obj["classification"].endswith("polynomial_algebra_of_phi")


def test_hom_motivic_direction(capsys):
    code, out, _ = run_cli(
        capsys, "hom", "--p", "5", "--f", "1", "--a", "torus:1", "--b", "elliptic:1"
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_hom_end_agreement(capsys):
    _, out, _ = run_cli(
        capsys, "hom", "--p", "5", "--f", "1",
        "--a", "lattice:1,torus:1", "--b", "lattice:1,torus:1",
    )
    assert json.loads(out)["dimension"] == 2


def test_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"lattice_rank": 1, "elliptic_traces": [0]}), encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "end", "--p", "5", "--f", "1", "--spec", str(spec_path))
    assert code == 0
    assert json.loads(out)["dimension"] == 2


def test_survey_matches_golden_p5_f1(capsys):
    code, out, _ = run_cli(capsys, "survey", "--p", "5", "--f", "1")
    assert code == 0
    assert out == (GOLDEN / "survey_p5_f1.txt").read_text(encoding="utf-8")


def test_survey_matches_golden_p5_f2(capsys):
    code, out, _ = run_cli(capsys, "survey", "--p", "5", "--f", "2")
    assert code == 0
    assert out == (GOLDEN / "survey_p5_f2.txt").read_text(encoding="utf-8")


def test_survey_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "survey", "--p", "5", "--f", "2")
    _, second, _ = run_cli(capsys, "survey", "--p", "5", "--f", "2")
    assert first == second


def test_survey_p2_rows(capsys):
    code, out, _ = run_cli(capsys, "survey", "--p", "2", "--f", "1", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["t"] for r in rows] == [-2, -1, 0, 1, 2]
    for r in rows:
        if r["ordinary"]:
            assert r["slopes"] == ["0", "1"]
            assert r["end_dim"] == 3
        else:
            assert r["slopes"] == ["1/2", "1/2"]
            assert r["end_dim"] == 2


def test_survey_json_scalar_jordan_rows(capsys):
    _, out, _ = run_cli(capsys, "survey", "--p", "5", "--f", "2", "--format", "json")
    rows = [json.loads(line) for line in out.splitlines()]
    by_key = {(r["t"], r["mode"]): r for r in rows}
    assert by_key[(10, "scalar")]["end_dim"] == 4
    assert by_key[(10, "scalar")]["class"] == "upper_triangular_full"
    assert by_key[(10, "jordan")]["end_dim"] == 3
    assert by_key[(-10, "auto")]["end_dim"] == 3
    assert len(rows) == 25


def test_motivic_hom_shift_vanishing(capsys):
    code, out, _ = run_cli(
        capsys, "motivic-hom", "--p", "5", "--f", "1",
        "--a", "lattice:1,torus:1@0", "--b", "lattice:1,torus:1@1",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_motivic_hom_same_degree(capsys):
    code, out, _ = run_cli(
        capsys, "motivic-hom", "--p", "5", "--f", "1",
        "--a", "lattice:1,torus:1@0", "--b", "lattice:1,torus:1@0",
    )
    obj = json.loads(out)
    assert obj["dimension"] == 2
    assert obj["by_degree"] == {"0": 2}


def test_motivic_hom_empty(capsys):
    code, out, _ = run_cli(
        capsys, "motivic-hom", "--p", "5", "--f", "1", "--a", "", "--b", "lattice:1@0"
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_parse_inline_spec():
    spec = parse_inline_spec("lattice:2,torus:1,elliptic:3,elliptic:-1")
    assert spec == OneMotiveSpec(lattice_rank=2, torus_dim=1, elliptic_traces=(3, -1))
    with pytest.raises(ValueError):
        parse_inline_spec("gerbe:1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hom", "--a", "lattice:x", "--b", "torus:1"], "spec component 'lattice:x' needs an integer value"),
        (["hom", "--a", "lattice:1@0", "--b", "torus:1"], "spec component 'lattice:1@0' needs an integer value"),
        (["end", "--elliptic", "1,x"], "--elliptic trace 'x' needs an integer value"),
        (["end", "--elliptic", "1", "--fil-mode", "eigenline:x"], "fil mode 'eigenline:x' needs an integer value"),
        (
            ["motivic-hom", "--a", "lattice:1@x", "--b", "torus:1"],
            "degree of complex summand 'lattice:1@x' needs an integer value",
        ),
        (["end", "--elliptic", "1", "--fil-mode", "eigenline:2"], "--fil-mode 'eigenline:2': root_index must be 0 or 1"),
        (["end", "--elliptic", "1", "--fil-mode", "eigenline:-1"], "--fil-mode 'eigenline:-1': root_index must be 0 or 1"),
        (["end", "--elliptic", "1", "--fil-mode", "foo"], "--fil-mode 'foo': unknown fil mode 'foo'"),
    ],
    ids=["component", "hom-with-degree", "trace", "eigenline-index", "degree", "eigenline-2", "eigenline-negative", "fil-mode"],
)
def test_spec_parse_errors_name_their_input(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--p", "5")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_fil_mode_flag(capsys):
    code, out, _ = run_cli(
        capsys, "end", "--p", "5", "--f", "2",
        "--lattice", "1", "--elliptic", "10", "--fil-mode", "scalar",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 4
    code, _, _ = run_cli(
        capsys, "end", "--p", "5", "--f", "1",
        "--lattice", "1", "--elliptic", "1", "--fil-mode", "scalar",
    )
    assert code == 2


def test_ordinary_eigenline_at_p2_realizes(capsys):
    # the eigenline of an ordinary trace comes from the Hensel-lifted unit
    # root, so no square root at p = 2 can come out one digit short
    code, out, _ = run_cli(
        capsys, "end", "--p", "2", "--f", "3", "--elliptic", "1",
        "--fil-mode", "eigenline:1", "--prec", "160", "--format", "table",
    )
    assert code == 0
    assert out.splitlines()[0] == "end dimension: 2"


def test_eigenline_at_p2_with_p_dividing_t_realizes(capsys):
    # the p | t eigenline takes a 2-adic square root of the discriminant;
    # one digit short of its claim, the line came out 0-dimensional
    code, _, err = run_cli(capsys, "realize", "--p", "2", "--f", "6", "--elliptic", "10", "--format", "table")
    assert code == 0 and err == ""


def test_survey_at_q16_answers_every_row(capsys):
    # ordinary atoms are slope parts and their End is solved over Q; the
    # p-adic zero threshold once failed rows here with a --prec hint
    code, out, err = run_cli(capsys, "survey", "--p", "2", "--f", "4", "--format", "table")
    assert code == 0 and err == "" and len(out.splitlines()) == 1 + 17 + 4  # scalar and jordan rows at t = +-8


def test_end_at_q32_is_exact(capsys):
    code, out, err = run_cli(capsys, "end", "--p", "2", "--f", "5", "--lattice", "1", "--elliptic", "1")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["dimension"] == 3 and obj["precision_report"] is None
    assert "-1/32" in [x for h in obj["basis"] for x in h["entries"]]


def test_eigenline_at_a_large_prime_answers_in_seconds():
    # p | t with a square discriminant takes a square root mod p; a scan over
    # the residues would not finish at p near 10^9
    src = Path(__file__).resolve().parents[1] / "src"
    command = [
        sys.executable, "-m", "onemotives.cli",
        "end", "--p", "1000000009", "--f", "2", "--elliptic", "0", "--format", "table",
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(command, capture_output=True, text=True, timeout=60, env=env)
    assert run.returncode == 0 and run.stdout.splitlines()[0] == "end dimension: 2"


def test_survey_takes_no_fil_mode(capsys):
    # survey sweeps the modes itself; the flag would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--p", "5", "--fil-mode", "scalar"])
    assert exc.value.code == 2


def test_spec_file_with_kummer_lambda(tmp_path, capsys):
    spec_path = tmp_path / "ext.json"
    spec_path.write_text(
        json.dumps({"lattice_rank": 1, "torus_dim": 1, "kummer_lambda": "3/1"}),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "realize", "--p", "5", "--f", "1", "--spec", str(spec_path))
    assert code == 0
    obj = json.loads(out)
    assert obj["graded"] is False
    assert obj["phi"]["entries"] == ["1/1", "3/1", "0/1", "5/1"]
    code, out, _ = run_cli(capsys, "end", "--p", "5", "--f", "1", "--spec", str(spec_path))
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_spec_file_with_abelian_explicit(tmp_path, capsys):
    spec_path = tmp_path / "ab.json"
    spec_path.write_text(
        json.dumps(
            {
                "lattice_rank": 1,
                "abelian_explicit": [
                    {
                        "phi": {"rows": 2, "cols": 2, "entries": ["0/1", "-5/1", "1/1", "1/1"]},
                        "fil1": {"rows": 2, "cols": 1, "entries": ["1/1", "0/1"]},
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "realize", "--p", "5", "--f", "1", "--spec", str(spec_path))
    assert code == 0
    assert json.loads(out)["dim"] == 3


_PHI = {"rows": 2, "cols": 2, "entries": ["0/1", "-5/1", "1/1", "1/1"]}
_FIL = {"rows": 2, "cols": 1, "entries": ["1/1", "0/1"]}
_PADIC_ONE = {"v": 0, "unit": "1", "prec": 40}


@pytest.mark.parametrize(
    "spec",
    [
        [1],
        {"lattice_rank": "2"},
        {"abelian_explicit": [{"phi": _PHI}]},
        {
            "abelian_explicit": [
                {"phi": _PHI, "fil1": {"rows": 2, "cols": 1, "entries": [_PADIC_ONE, _PADIC_ONE]}}
            ]
        },
        {"elliptic_traces": 3},
        {"lattice_rank": 1, "torus_dim": 1, "kummer_lambda": [3]},
        {"abelian_explicit": [{"phi": {"rows": 2}, "fil1": _FIL}]},
        {"abelian_explicit": [{"phi": [1, 2], "fil1": _FIL}]},
        {"abelian_explicit": [{"phi": {**_PHI, "entries": ["0/1", None, "1/1", "1/1"]}, "fil1": _FIL}]},
        {"abelian_explicit": [{"phi": {**_PHI, "rows": 2.0}, "fil1": _FIL}]},
        {"lattice_rank": 1, "torus_dim": 1, "kummer_lambda": "1/0"},
        {"abelian_explicit": [{"phi": {**_PHI, "entries": ["0/1", "1/0", "1/1", "1/1"]}, "fil1": _FIL}]},
        {"lattice_rank": 1, "torus": 1},
        {"abelian_explicit": [{"phi": _PHI, "fil1": _FIL, "fill1": 3}]},
    ],
    ids=[
        "not-an-object", "string-rank", "fil1-missing", "padic-fil1", "traces-not-a-list", "lambda-list",
        "matrix-without-entries", "matrix-not-an-object", "null-entry", "float-rows",
        "lambda-zero-denominator", "entry-zero-denominator", "unknown-field", "unknown-block-field",
    ],
)
def test_malformed_spec_file_exits_2(tmp_path, capsys, spec):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(capsys, "end", "--p", "5", "--spec", str(spec_path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("command", ["realize", "end"])
@pytest.mark.parametrize(
    "flags",
    [["--lattice", "3", "--torus", "2"], ["--lattice", "0"], ["--elliptic", "1"], ["--kummer-lambda", "1/2"]],
)
def test_spec_file_with_inline_flags_exits_2(tmp_path, capsys, command, flags):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"lattice_rank": 1}), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--p", "5", "--spec", str(spec_path), *flags)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flags[0] in lines[0], err


def test_kummer_lambda_flag_with_zero_denominator_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "end", "--p", "5", "--lattice", "1", "--torus", "1", "--kummer-lambda", "1/0"
    )
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_spec_file_that_is_not_json_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{lattice_rank: 1", encoding="utf-8")
    code, out, err = run_cli(capsys, "end", "--p", "5", "--spec", str(spec_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_missing_spec_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "realize", "--p", "5", "--f", "1", "--spec", "/nonexistent.json")
    assert code == 2
    assert err


def test_end_table_format_prints_basis(capsys):
    code, out, _ = run_cli(
        capsys, "end", "--p", "5", "--f", "1", "--lattice", "1", "--torus", "1",
        "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "end dimension: 2"
    assert lines[1] == "classification: lattice_scalars+torus_scalars"
    assert sum(1 for ln in lines if ln.startswith("basis[")) == 2


# sha256 of stdout, each pinning the order of a basis whose elements come
# from several atom pairs (exact and p-adic End, exact and p-adic Hom)
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("end --p 5 --lattice 2 --elliptic 1,1 --torus 1", "9cb51f0030cf43ce4870ae558657c72c78509ae9bbe10676a7534db73e8e2599"),
        ("end --p 5 --f 2 --elliptic 0,0", "5a81634b45adfbd679cdc46775175c994c2124c487f01eedd8f1b9e026796cba"),
        ("end --p 2 --lattice 1 --elliptic 1,2", "c38f13a473eec0e18f29c1d9fb579633103a45c3f1bc2a0413d8f5f5fafb8e0d"),
        ("end --p 3 --elliptic 0,0,3 --torus 2 --format table", "ef9e75cbd464d06559fed40eed272b1b2ae02d8291a899ef58823f0825c363e1"),
        (
            "hom --p 3 --a lattice:1,elliptic:1,torus:1 --b elliptic:1,elliptic:2,lattice:2",
            "e3f2f9da93d60c377f07c17c2a7d6c139a6924d42f3ce6dc783a3d1fd3f05e21",
        ),
        (
            "hom --p 5 --f 2 --a elliptic:0,torus:1 --b lattice:1,elliptic:0,elliptic:0",
            "86bdc74f2958141ce3f22e350eaa6d570ba7bd3a7f49d1b137eace77f3b74dd5",
        ),
    ],
)
def test_basis_output_is_byte_stable(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
