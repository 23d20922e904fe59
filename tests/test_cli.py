import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

import tsppsd
from tsppsd import cli
from tsppsd.cli import run
from tsppsd.functionals import combine, functional_to_spec, make_ones, make_subtour
from tsppsd.moment import moment_matrix_closed_form_k1, moment_matrix_enumerated_cycles
from tsppsd.rational import format_fraction

SUBTOUR_SPEC = {"kind": "subtour", "n": 8, "U": [1, 2, 3]}
OUTSIDE_SPEC = {
    "kind": "combination",
    "terms": [
        {"scale": "8/1", "func": {"kind": "subtour", "n": 8, "U": [1, 2, 3]}},
        {"scale": "-7/1", "func": {"kind": "ones", "n": 8}},
    ],
}


def invoke(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, out


def write_spec(tmp_path, spec, name="func.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def test_cycles_count(capsys):
    code, out = invoke(["cycles", "--n", "5", "--count-only"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == "12"


def test_cycles_contains_listing(capsys):
    code, out = invoke(["cycles", "--n", "6", "--contains", "1-2,3-4"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["count"] == "12"
    assert len(data["cycles"]) == 12
    assert all(o.startswith("1-") for o in data["cycles"])


def test_cycles_resource_limit_exit_code(capsys):
    assert run(["cycles", "--n", "14"]) == 3


def test_env_cap_override(tmp_path):
    # the child process imports the same tsppsd as this test, installed or not
    src = os.path.dirname(os.path.dirname(tsppsd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TSPPSD_MAX_CYCLES="13", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "tsppsd.cli", "cycles", "--n", "13", "--count-only"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == str(479001600 // 2)


def test_matrix_closed_form(tmp_path, capsys):
    func = write_spec(tmp_path, SUBTOUR_SPEC)
    code, out = invoke(["matrix", "--func", func], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 8 and data["k"] == 1
    assert data["basis"][0] == "1"
    assert len(data["entries"]) == 29
    assert all("/" in x for row in data["entries"] for x in row)


def test_matrix_methods_agree(tmp_path, capsys):
    func = write_spec(tmp_path, {"kind": "ones", "n": 6})
    _, closed = invoke(["matrix", "--func", func, "--method", "closed-form"], capsys)
    _, enum = invoke(["matrix", "--func", func, "--method", "enumerate"], capsys)
    assert json.loads(closed)["entries"] == json.loads(enum)["entries"]


def test_matrix_csv(tmp_path, capsys):
    func = write_spec(tmp_path, {"kind": "ones", "n": 6})
    code, out = invoke(["matrix", "--func", func, "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("basis,1,1-2")
    assert lines[1].split(",")[1] == "1/1"


def test_membership_psd_and_not(tmp_path, capsys):
    func = write_spec(tmp_path, SUBTOUR_SPEC)
    code, out = invoke(["membership", "--func", func], capsys)
    assert code == 0 and json.loads(out)["status"] == "PSD"
    outside = write_spec(tmp_path, OUTSIDE_SPEC, "outside.json")
    code, out = invoke(["membership", "--func", outside], capsys)
    data = json.loads(out)
    assert code == 1 and data["status"] == "NOT_PSD"
    assert all("/" in w for w in data["witness"])


def test_membership_n3(tmp_path, capsys):
    # the only tour of K_3 contains all three edges
    func = write_spec(tmp_path, {"kind": "ones", "n": 3})
    code, out = invoke(["membership", "--func", func], capsys)
    assert code == 0 and json.loads(out)["status"] == "PSD"
    _, out = invoke(["matrix", "--func", func], capsys)
    assert json.loads(out)["entries"] == [["1/1"] * 4] * 4


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # a failed self-check must not read as a NOT_PSD verdict (exit 1)
    def tripwire(*args, **kwargs):
        raise RuntimeError("degree relations not in matrix kernel")

    monkeypatch.setattr(cli, "membership_p1", tripwire)
    func = write_spec(tmp_path, SUBTOUR_SPEC)
    assert run(["membership", "--func", func]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "degree relations not in matrix kernel" in err


def test_membership_float_mode(tmp_path, capsys):
    func = write_spec(tmp_path, SUBTOUR_SPEC)
    code, out = invoke(["membership", "--func", func, "--float"], capsys)
    data = json.loads(out)
    assert code == 0 and data["status"] == "PSD"
    assert data["method"] == "float-eigh"
    assert data["tolerance"] == 1e-10


def test_membership_refuses_average_other_than_one(tmp_path, capsys):
    # 2 * ones has average 2 on X; --float refuses it as the exact path does
    twice = {
        "kind": "combination",
        "terms": [{"scale": "2/1", "func": {"kind": "ones", "n": 6}}],
    }
    func = write_spec(tmp_path, twice)
    for k in ("1", "2"):
        for extra in ([], ["--float"]):
            assert run(["membership", "--func", func, "--k", k, *extra]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: membership requires average exactly 1 on X, got 2\n"


def test_membership_k2(tmp_path, capsys):
    func = write_spec(tmp_path, {"kind": "ones", "n": 6})
    code, out = invoke(["membership", "--func", func, "--k", "2"], capsys)
    assert code == 0 and json.loads(out)["status"] == "PSD"


def test_certify_exit_codes(capsys):
    assert run(["certify", "--facet", "subtour", "--n", "7", "--u", "1,2,3"]) == 0
    assert run(["certify", "--facet", "edge-lower", "--n", "6", "--edge", "2-3"]) == 0
    assert run(
        [
            "certify",
            "--facet",
            "two-matching",
            "--n",
            "7",
            "--u",
            "1,2,3",
            "--f-edges",
            "1-4,2-5,3-6",
        ]
    ) == 0


def test_spectrum_verify(capsys):
    code, out = invoke(
        ["spectrum", "--n", "9", "--m", "3", "--a", "1/1", "--verify"], capsys
    )
    data = json.loads(out)
    assert code == 0
    assert data["exact_eigenpairs"] is True
    assert data["numerical_match"] is True
    assert data["numerical_tolerance"] == 1e-9
    mults = [f["multiplicity"] for f in data["families"]]
    assert sum(mults) + 2 == data["dimension"]


def test_spectrum_sqrt_n(capsys):
    code, out = invoke(
        ["spectrum", "--n", "12", "--m", "4", "--a", "sqrt-n", "--verify"], capsys
    )
    data = json.loads(out)
    assert code == 0
    assert data["lambda_minus_nonpositive"] is True
    assert data["residual"]["lambda_minus"] <= 1e-12


def test_bounds_single_and_oracle(capsys):
    code, out = invoke(["bounds", "--n", "10", "--k", "2"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["a_k"] == "56/11" and data["alpha_k"] == "1/11"
    code, out = invoke(["bounds", "--n", "8", "--k", "2", "--oracle"], capsys)
    data = json.loads(out)
    assert code == 0 and data["oracle_match"] is True


def test_bounds_grid_csv(tmp_path):
    out_path = tmp_path / "grid.csv"
    assert run(["bounds", "--grid", "--n-max", "20", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "n,k,a_k,alpha_k,bound_10_over_n"
    assert lines[1].startswith("9,1,9/1,0/1")


def test_verify_suite_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["verify", "--suite", "paths", "--n-max", "7", "--out", str(out1)]) == 0
    assert run(["verify", "--suite", "paths", "--n-max", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["failures"] == 0
    ids = [c["id"] for c in data["checks"]]
    assert ids == sorted(ids)


def test_verify_report_does_not_depend_on_the_eigensolver(tmp_path, monkeypatch):
    # the numerical checks report the tolerance they passed, not the
    # deviation that the LAPACK build happened to give
    args = ["verify", "--suite", "spectra", "--n-max", "7", "--out"]
    plain, perturbed = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + [str(plain)]) == 0
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: eigvalsh(A) + 1e-13)
    assert run(args + [str(perturbed)]) == 0
    assert plain.read_bytes() == perturbed.read_bytes()


def test_spectrum_report_does_not_depend_on_the_eigensolver(tmp_path, monkeypatch):
    args = ["spectrum", "--n", "9", "--m", "4", "--a", "2/1", "--verify", "--out"]
    plain, perturbed = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + [str(plain)]) == 0
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: eigvalsh(A) + 1e-13)
    assert run(args + [str(perturbed)]) == 0
    assert plain.read_bytes() == perturbed.read_bytes()


def test_matrix_output_formats_every_entry(tmp_path):
    # JSON and CSV hold format_fraction(N_ij / scale) for every entry
    a = Fraction(7, 3)
    for n in range(3, 9):
        f = make_ones(n) if n == 3 else combine(a, make_subtour(n, {1, 2}), 1 - a, make_ones(n))
        func = write_spec(tmp_path, functional_to_spec(f))
        for method, M in (
            ("closed-form", moment_matrix_closed_form_k1(f)),
            ("enumerate", moment_matrix_enumerated_cycles(n, f, 1)),
        ):
            rows = [[format_fraction(Fraction(x, M.scale)) for x in row] for row in M.N.tolist()]
            want_json = {"n": n, "k": 1, "basis": list(M.labels), "entries": rows}
            want_csv = ["basis," + ",".join(M.labels)] + [
                label + "," + ",".join(row) for label, row in zip(M.labels, rows)
            ]
            out = tmp_path / "m.out"
            for fmt, want in (
                ("json", json.dumps(want_json, indent=2)),
                ("csv", "\n".join(want_csv)),
            ):
                argv = ["matrix", "--func", func, "--method", method, "--format", fmt]
                assert run(argv + ["--out", str(out)]) == 0
                assert out.read_bytes() == (want + "\n").encode(), (n, method, fmt)


def test_verify_zero_one_suite(capsys):
    code, out = invoke(["verify", "--suite", "zero-one", "--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_usage_errors(capsys):
    assert run(["membership", "--func", "/does/not/exist.json"]) == 2
    assert run(["nonsense"]) == 2
    assert run([]) == 2


def test_outputs_are_deterministic_files(tmp_path):
    func = write_spec(tmp_path, SUBTOUR_SPEC)
    a, b = tmp_path / "m1.json", tmp_path / "m2.json"
    run(["matrix", "--func", func, "--out", str(a)])
    run(["matrix", "--func", func, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
