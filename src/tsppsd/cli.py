"""Command-line front end.

Subcommands: cycles, matrix, membership, certify, spectrum, bounds, verify.
Exit codes: 0 success/verified, 1 verification failure or NOT_PSD, 2 usage
error, 3 resource limit, 4 internal error (a failed self-check; never a
verdict).  Exact numbers are emitted as "p/q" strings; float
results carry the tolerance used.  Identical arguments and seed produce
byte-identical output files (timings go to stderr, never into reports).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from tsppsd.bounds import bound_oracle, bound_report, theorem1_constants
from tsppsd.cycles import (
    DEFAULT_CYCLE_CAP,
    HamiltonianCycle,
    count_cycles_with_edge_set,
    edge,
    tour_array,
)
from tsppsd.errors import ResourceLimitError
from tsppsd.functionals import FacetSpec, functional_from_spec
from tsppsd.moment import (
    moment_matrix_closed_form_k1,
    moment_matrix_enumerated_cycles,
)
from tsppsd.psd import (
    DEFAULT_EXACT_CAP,
    FLOAT_TOLERANCE,
    boundary_certificate,
    is_psd_float,
    membership_p1,
    membership_pk_enumerated,
    require_unit_average,
    verify_certificate,
)
from tsppsd.rational import format_fraction, parse_fraction
from tsppsd.spectra import (
    closed_form_spectrum,
    spectrum_matches_numerical,
    verify_eigenpairs_exact,
)
from tsppsd.suites import NUMERICAL_TOLERANCE, SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    command: str
    n: int | None = None
    k: int = 1
    m: int | None = None
    a: str = "1/1"
    func_path: str | None = None
    out: str | None = None
    fmt: str = "json"
    float_mode: bool = False
    cycle_cap: int = DEFAULT_CYCLE_CAP
    exact_cap: int = DEFAULT_EXACT_CAP
    seed: int = 0
    verbose: bool = False


def _parse_edges(text: str):
    return [edge(*map(int, part.split("-"))) for part in text.split(",") if part]


def _write(out: str | None, text: str) -> None:
    if out in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _emit(cfg: RunConfig, obj) -> None:
    _write(cfg.out, json.dumps(obj, indent=2))


def _load_functional(cfg: RunConfig):
    if cfg.func_path is None:
        raise ValueError("this command needs --func FILE")
    if cfg.func_path == "-":
        return functional_from_spec(json.load(sys.stdin))
    with open(cfg.func_path, encoding="utf-8") as fh:
        return functional_from_spec(json.load(fh))


def cmd_cycles(cfg: RunConfig, contains: str | None, count_only: bool) -> int:
    n = cfg.n
    edges = _parse_edges(contains) if contains else []
    if count_only:
        count = count_cycles_with_edge_set(n, edges)
        _emit(cfg, {"n": n, "contains": contains or "", "count": str(count)})
        return EXIT_OK
    tours = tour_array(n, cfg.cycle_cap)
    orders = tours.orders[tours.containing(edges)]
    _emit(
        cfg,
        {
            "n": n,
            "contains": contains or "",
            "count": str(len(orders)),
            "cycles": ["-".join(map(str, o)) for o in orders.tolist()],
        },
    )
    return EXIT_OK


def cmd_matrix(cfg: RunConfig, method: str) -> int:
    f = _load_functional(cfg)
    if method == "closed-form":
        if cfg.k != 1:
            raise ValueError("closed form is available for k=1 only")
        M = moment_matrix_closed_form_k1(f)
    else:
        M = moment_matrix_enumerated_cycles(f.n, f, cfg.k, cfg.cycle_cap)
    if cfg.fmt == "csv":
        lines = ["basis," + ",".join(M.labels)]
        for label, row in zip(M.labels, M.formatted_rows()):
            lines.append(label + "," + ",".join(row))
        _write(cfg.out, "\n".join(lines))
    else:
        _emit(cfg, M.to_json_dict())
    return EXIT_OK


def cmd_membership(cfg: RunConfig) -> int:
    f = _load_functional(cfg)
    if cfg.float_mode:
        M = (
            moment_matrix_closed_form_k1(f)
            if cfg.k == 1
            else moment_matrix_enumerated_cycles(f.n, f, cfg.k, cfg.cycle_cap)
        )
        require_unit_average(M.entry(0, 0))
        verdict = is_psd_float(M)
        payload = {
            "n": f.n,
            "k": cfg.k,
            "status": verdict.status,
            "method": verdict.method,
            "min_eigenvalue_estimate": verdict.min_eigenvalue_estimate,
            "tolerance": FLOAT_TOLERANCE,
        }
    else:
        verdict = (
            membership_p1(f, cfg.exact_cap)
            if cfg.k == 1
            else membership_pk_enumerated(f, cfg.k, cfg.cycle_cap)
        )
        payload = {
            "n": f.n,
            "k": cfg.k,
            "status": verdict.status,
            "method": verdict.method,
        }
    if verdict.witness is not None:
        payload["witness"] = [format_fraction(x) for x in verdict.witness]
    _emit(cfg, payload)
    return EXIT_OK if verdict.is_psd else EXIT_FAIL


def cmd_certify(cfg: RunConfig, facet: str, u: str, e: str, f_edges: str) -> int:
    spec = FacetSpec(
        facet,
        cfg.n,
        U=tuple(int(x) for x in u.split(",")) if u else (),
        edge=_parse_edges(e)[0] if e else None,
        F=tuple(_parse_edges(f_edges)) if f_edges else (),
    )
    func = spec.functional()
    cert = boundary_certificate(spec)
    ok = verify_certificate(func, cert, cfg.n, cfg.cycle_cap)
    _emit(
        cfg,
        {
            "facet": facet,
            "n": cfg.n,
            "certificate_degree": cert.degree,
            "quadratic_form_zero": ok,
        },
    )
    return EXIT_OK if ok else EXIT_FAIL


def cmd_spectrum(cfg: RunConfig, verify: bool) -> int:
    a = cfg.a if cfg.a == "sqrt-n" else parse_fraction(cfg.a)
    report = closed_form_spectrum(cfg.n, cfg.m, a)

    def num(x):
        return format_fraction(x) if isinstance(x, Fraction) else float(x)

    payload = {
        "n": cfg.n,
        "m": cfg.m,
        "a": cfg.a,
        "families": [
            {"label": f.label, "eigenvalue": num(f.eigenvalue), "multiplicity": f.multiplicity}
            for f in report.families
        ],
        "residual": {
            "c": num(report.residual.c_value),
            "d": num(report.residual.d_value),
            "denominator": report.residual.denominator,
            "lambda_plus": report.residual.lambda_plus,
            "lambda_minus": report.residual.lambda_minus,
        },
        "dimension": report.dimension,
    }
    ok = True
    if verify:
        dev = spectrum_matches_numerical(cfg.n, cfg.m, a)
        # the deviation depends on the LAPACK build, so the report carries
        # only whether it is within the tolerance
        ok = dev < NUMERICAL_TOLERANCE
        payload["numerical_match"] = ok
        payload["numerical_tolerance"] = NUMERICAL_TOLERANCE
        if cfg.a != "sqrt-n":
            rep = verify_eigenpairs_exact(cfg.n, cfg.m, parse_fraction(cfg.a))
            payload["exact_eigenpairs"] = rep.all_ok
            ok = ok and rep.all_ok
        if cfg.a == "sqrt-n":
            lam = report.residual.lambda_minus
            scale = max(1.0, abs(report.residual.lambda_plus), abs(lam))
            payload["lambda_minus_nonpositive"] = bool(lam <= 1e-12 * scale)
            ok = ok and payload["lambda_minus_nonpositive"]
    _emit(cfg, payload)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_bounds(cfg: RunConfig, grid: bool, n_max: int, oracle: bool) -> int:
    if grid:
        lines = ["n,k,a_k,alpha_k,bound_10_over_n"]
        for n in range(9, n_max + 1):
            for k in range(1, n // 2 + 1):
                rep = theorem1_constants(n, k)
                lines.append(
                    f"{n},{k},{format_fraction(rep.a_k)},"
                    f"{format_fraction(rep.alpha_k)},{format_fraction(Fraction(10, n))}"
                )
        _write(cfg.out, "\n".join(lines))
        return EXIT_OK
    rep = bound_report(cfg.n, cfg.k)
    payload = {
        "n": rep.n,
        "k": rep.k,
        "parity": rep.parity,
        "b_k": str(rep.b_k),
        "c_k": str(rep.c_k),
        "bound": format_fraction(rep.bound),
        "a_k": format_fraction(rep.a_k),
        "alpha_k": format_fraction(rep.alpha_k),
    }
    ok = True
    if oracle:
        y = HamiltonianCycle(tuple(range(1, cfg.n + 1)))
        got = (
            bound_oracle(cfg.n, cfg.k, y, edge(1, 3), cfg.cycle_cap),
            bound_oracle(cfg.n, cfg.k, y, edge(1, 2), cfg.cycle_cap),
        )
        payload["oracle_b_k"] = str(got[0])
        payload["oracle_c_k"] = str(got[1])
        ok = got == (rep.b_k, rep.c_k)
        payload["oracle_match"] = ok
    _emit(cfg, payload)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(cfg: RunConfig, suite: str, n_max: int | None) -> int:
    t0 = time.time()
    checks = run_suite(suite, n_max, cfg.seed)
    failures = [c for c in checks if c["status"] != "pass"]
    _emit(
        cfg,
        {
            "suite": suite,
            "seed": cfg.seed,
            "checks": checks,
            "total": len(checks),
            "failures": len(failures),
        },
    )
    print(
        f"suite {suite}: {len(checks)} checks, {len(failures)} failures "
        f"in {time.time() - t0:.1f}s",
        file=sys.stderr,
    )
    return EXIT_OK if not failures else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsppsd",
        description="Exact PSD relaxations of the symmetric TSP polytope dual",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_n: bool = False) -> None:
        if needs_n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", default="-", help="output file, or - for stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-cycles", type=int, default=None,
                       help="enumeration cap override (or TSPPSD_MAX_CYCLES)")
        p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("cycles", help="enumerate or count Hamiltonian cycles")
    common(p, needs_n=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--contains", default=None, help='edge list "1-2,3-4"')

    p = sub.add_parser("matrix", help="moment matrix of a functional")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--func", required=True, help="functional spec JSON file")
    p.add_argument("--method", choices=("closed-form", "enumerate"),
                   default="closed-form")

    p = sub.add_parser("membership", help="decide membership in P_k")
    common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--func", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--float", dest="float_mode", action="store_true")
    p.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP)

    p = sub.add_parser("certify", help="verify a boundary certificate")
    common(p, needs_n=True)
    p.add_argument("--facet", required=True,
                   choices=("subtour", "edge-lower", "edge-upper", "two-matching"))
    p.add_argument("--u", default="", help='handle vertices "1,2,3"')
    p.add_argument("--edge", default="", help='edge "2-3"')
    p.add_argument("--f-edges", default="", help='matching edges "1-4,2-5,3-6"')

    p = sub.add_parser("spectrum", help="closed-form eigensystem report")
    common(p, needs_n=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", default="1/1", help='rational "p/q" or sqrt-n')
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("bounds", help="metric constants a_k = n/k + alpha_k")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--oracle", action="store_true")

    p = sub.add_parser("verify", help="run oracle-comparison suites")
    common(p)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--n-max", type=int, default=None)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    cap = args.max_cycles
    if cap is None:
        cap = int(os.environ.get("TSPPSD_MAX_CYCLES", DEFAULT_CYCLE_CAP))
    cfg = RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        k=getattr(args, "k", 1),
        m=getattr(args, "m", None),
        a=getattr(args, "a", "1/1"),
        func_path=getattr(args, "func", None),
        out=args.out,
        fmt=args.format,
        float_mode=getattr(args, "float_mode", False),
        cycle_cap=cap,
        exact_cap=getattr(args, "exact_cap", DEFAULT_EXACT_CAP),
        seed=args.seed,
        verbose=args.verbose,
    )
    try:
        if args.command == "cycles":
            return cmd_cycles(cfg, args.contains, args.count_only)
        if args.command == "matrix":
            return cmd_matrix(cfg, args.method)
        if args.command == "membership":
            return cmd_membership(cfg)
        if args.command == "certify":
            return cmd_certify(cfg, args.facet, args.u, args.edge, args.f_edges)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.verify)
        if args.command == "bounds":
            if not args.grid and cfg.n is None:
                parser.error("bounds needs --n or --grid")
            return cmd_bounds(cfg, args.grid, args.n_max, args.oracle)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.n_max)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
