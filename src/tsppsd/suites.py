"""Oracle-comparison suites behind `tsppsd verify`.

Each suite runs a desk-scale grid of exact comparisons between closed forms
and brute-force enumeration and returns one record per check.  Records are
plain dicts so the CLI can serialize them; ordering is deterministic
(sorted by check id) and all randomness is seeded.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from tsppsd.bounds import (
    bound_oracle,
    bound_report,
    f_counts,
    g_counts,
    proposition_bound,
    theorem1_constants,
)
from tsppsd.cycles import (
    HamiltonianCycle,
    PathSystem,
    all_edges,
    count_cycles_containing,
    edge,
    tour_array,
)
from tsppsd.functionals import (
    FacetSpec,
    LinearFunctional,
    average_on_x,
    combine,
    make_edge_bound,
    make_ones,
    make_subtour,
    make_two_matching,
)
from tsppsd.moment import (
    GroundSet,
    closed_form_k1,
    degree_relations,
    expected_trace,
    moment_matrix_closed_form_k1,
    moment_matrix_enumerated_cycles,
    trace_of,
)
from tsppsd.psd import (
    boundary_certificate,
    verify_certificate,
    zero_one_collapse_check,
)
from tsppsd.rational import format_fraction
from tsppsd.spectra import (
    ones_spectrum,
    spectrum_matches_numerical,
    sqrt_n_nonpositivity,
    verify_eigenpairs_exact,
)

SUITES = ("paths", "moment", "certificates", "spectra", "bounds", "zero-one", "all")
NUMERICAL_TOLERANCE = 1e-9  # closed-form against LAPACK eigenvalues


def _check(checks: list[dict], cid: str, ok: bool, detail: str = "") -> None:
    checks.append({"id": cid, "status": "pass" if ok else "fail", "detail": detail})


def path_patterns(n: int):
    """All partition shapes (k_1 >= ... >= k_m) with k + m <= n."""
    out = []
    for m in range(1, n):
        def rec(prefix, remaining_budget, maxpart):
            if len(prefix) == m:
                out.append(tuple(prefix))
                return
            for part in range(min(maxpart, remaining_budget - (m - len(prefix) - 1)), 0, -1):
                rec(prefix + [part], remaining_budget - part, part)
        rec([], n - m, n - m)
    return sorted(set(out))


def embed_pattern(pattern: tuple[int, ...], n: int, rng: random.Random) -> PathSystem:
    """Lay the path lengths onto randomly shuffled vertex labels."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    paths = []
    pos = 0
    for length in pattern:
        paths.append(tuple(labels[pos: pos + length + 1]))
        pos += length + 1
    return PathSystem(tuple(paths))


def suite_paths(n_max: int = 9, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)
    for n in range(4, n_max + 1):
        tours = tour_array(n)
        _check(
            checks,
            f"paths/n={n}/cycle-count",
            len(tours) == count_cycles_containing(n, PathSystem(())),
            f"{len(tours)} tours",
        )
        for pattern in path_patterns(n):
            ps = embed_pattern(pattern, n, rng)
            want = count_cycles_containing(n, ps)
            got = int(np.count_nonzero(tours.containing(ps.edges)))
            label = "+".join(map(str, pattern))
            _check(
                checks,
                f"paths/n={n}/pattern={label}",
                want == got,
                f"closed={want} enumerated={got}",
            )
    return checks


def _generators(n: int) -> list[tuple[str, LinearFunctional]]:
    gens: list[tuple[str, LinearFunctional]] = [("ones", make_ones(n))]
    for m in range(2, n // 2 + 1):
        gens.append((f"subtour-m{m}", make_subtour(n, range(1, m + 1))))
    gens.append(("edge-lower", make_edge_bound(n, edge(2, 3), "lower")))
    gens.append(("edge-upper", make_edge_bound(n, edge(2, 3), "upper")))
    if n >= 7:
        gens.append(
            (
                "two-matching",
                make_two_matching(n, {1, 2, 3}, [edge(1, 4), edge(2, 5), edge(3, 6)]),
            )
        )
    return gens


def _random_functional(n: int, rng: random.Random, normalized: bool = True) -> LinearFunctional:
    coeff = {
        e: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for e in all_edges(n)
        if rng.random() < 0.6
    }
    f = LinearFunctional(n, Fraction(rng.randint(-2, 2)), coeff)
    if not normalized:
        return f
    avg = average_on_x(f)
    if avg == 0:
        return make_ones(n)
    return combine(1 / avg, f, 0, f)


def suite_moment(n_max: int = 7, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)
    for n in range(6, n_max + 1):
        for name, f in _generators(n):
            closed = moment_matrix_closed_form_k1(f)
            enum = moment_matrix_enumerated_cycles(n, f, 1)
            _check(
                checks,
                f"moment/n={n}/closed-vs-enum/{name}",
                closed == enum,
            )
        for k in (1, 2):
            f = _random_functional(n, rng)
            M = moment_matrix_enumerated_cycles(n, f, k)
            want = expected_trace(n, k, average_on_x(f))
            _check(
                checks,
                f"moment/n={n}/trace/k={k}",
                trace_of(M) == want,
                f"trace={format_fraction(trace_of(M))}",
            )
    for n in (6, 10, 16):
        cf = closed_form_k1(make_subtour(n, range(1, n // 2 + 1)))
        # the degree relations at the first and at the last vertex
        ok = cf.annihilates(degree_relations(n)[:, [0, n - 1]])
        _check(checks, f"moment/n={n}/star-kernel", ok)
    return checks


def suite_certificates(n_max: int = 8, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    for n in range(6, n_max + 1):
        for e in all_edges(n):
            for kind in ("edge-lower", "edge-upper"):
                spec = FacetSpec(kind, n, edge=e)
                ok = verify_certificate(
                    spec.functional(), boundary_certificate(spec), n
                )
                _check(checks, f"certificates/n={n}/{kind}/{e.u}-{e.v}", ok)
        for m in range(2, n // 2 + 1):
            spec = FacetSpec("subtour", n, U=tuple(range(1, m + 1)))
            ok = verify_certificate(spec.functional(), boundary_certificate(spec), n)
            _check(checks, f"certificates/n={n}/subtour/m={m}", ok)
    for n in (7, 8):
        if n > n_max:
            continue
        spec = FacetSpec(
            "two-matching",
            n,
            U=(1, 2, 3),
            F=(edge(1, 4), edge(2, 5), edge(3, 6)),
        )
        ok = verify_certificate(spec.functional(), boundary_certificate(spec), n)
        _check(checks, f"certificates/n={n}/two-matching", ok)
    return checks


def suite_spectra(n_max: int = 9, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    for n in range(6, n_max + 1):
        for m in range(3, n // 2 + 1):
            for a in (0, 1, 2):
                rep = verify_eigenpairs_exact(n, m, a)
                _check(checks, f"spectra/n={n}/m={m}/a={a}/eigenpairs", rep.all_ok)
            dev = spectrum_matches_numerical(n, m, Fraction(1))
            # the deviation depends on the LAPACK build, so a passing check
            # reports only the tolerance and the report stays byte-identical
            ok = dev < NUMERICAL_TOLERANCE
            shown = "below" if ok else f"{dev:.2e}, not below"
            _check(
                checks,
                f"spectra/n={n}/m={m}/numerical-match",
                ok,
                f"max deviation {shown} {NUMERICAL_TOLERANCE:.0e}",
            )
        for c in sqrt_n_nonpositivity(n):
            _check(
                checks,
                f"spectra/n={n}/m={c.m}/sqrt-n",
                c.ok,
                f"lambda_minus={c.lambda_minus:.3e}",
            )
    for n in (6, 7):
        rep = ones_spectrum(n)
        _check(
            checks,
            f"spectra/n={n}/ones",
            rep.exact_pass and rep.numerical_max_deviation < NUMERICAL_TOLERANCE,
            f"residual={format_fraction(rep.residual_value)}",
        )
    return checks


def suite_bounds(n_max: int = 8, seed: int = 0) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)
    for n in range(6, n_max + 1):
        y = HamiltonianCycle(tuple(range(1, n + 1)))
        off = edge(1, 3)
        on = edge(1, 2)
        for k in range(1, n // 2 + 1):
            if n % 2 and k > (n - 1) // 2:
                continue
            counts = f_counts(n, k) if n % 2 == 0 else g_counts(n, k)
            oracle = (bound_oracle(n, k, y, off), bound_oracle(n, k, y, on))
            _check(
                checks,
                f"bounds/n={n}/k={k}/counts-vs-oracle",
                counts == oracle,
                f"closed={counts} oracle={oracle}",
            )
    ok, bad = True, ""
    for n in range(6, 61):
        for k in range(1, n // 2 + 1):
            try:
                if bound_report(n, k).bound != proposition_bound(n, k):
                    raise RuntimeError("mismatch")
            except RuntimeError:
                ok, bad = False, f"first failure at n={n}, k={k}"
                break
        if not ok:
            break
    _check(checks, "bounds/grid-6-60/closed-form", ok, bad or "all (n,k) agree")
    ok, bad = True, ""
    for n in range(9, 201):
        for k in range(1, n // 2 + 1):
            try:
                theorem1_constants(n, k)
            except RuntimeError:
                ok, bad = False, f"first failure at n={n}, k={k}"
                break
        if not ok:
            break
    _check(checks, "bounds/grid-9-200/alpha-bound", ok, bad or "|alpha_k| <= 10/n")
    for n in (6, 7):
        f = _random_functional(n, rng)
        lin = f.linear_coefficients()
        y = HamiltonianCycle(tuple(range(1, n + 1)))
        lhs = Fraction(n - 1, 2) - f.evaluate(y)
        rhs = sum(
            (lin[e] for e in all_edges(n) if e not in y.edges), Fraction(0)
        )
        _check(
            checks,
            f"bounds/n={n}/edge-decomposition",
            lhs == rhs,
            f"lhs={format_fraction(lhs)}",
        )
    return checks


def suite_zero_one(seed: int = 0, rounds: int = 20) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)
    for trial in range(rounds):
        d = rng.randint(2, 4)
        universe = [
            tuple(Fraction((mask >> i) & 1) for i in range(d))
            for mask in range(2**d)
        ]
        pts = tuple(rng.sample(universe, rng.randint(2, 2**d)))
        X = GroundSet(d, pts)
        const = Fraction(rng.randint(-3, 3))
        coefs = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        values = [const + sum(c * x for c, x in zip(coefs, p)) for p in pts]
        report = zero_one_collapse_check(X, values)
        has_negative = any(v < 0 for v in values)
        ok = report.in_q != has_negative
        if not report.in_q:
            fy = values[pts.index(report.witness_point)]
            ok = ok and report.q_value == Fraction(fy, len(pts)) and report.q_value < 0
        _check(checks, f"zero-one/trial={trial:02d}/d={d}", ok)
    return checks


def run_suite(name: str, n_max: int | None = None, seed: int = 0) -> list[dict]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
    checks: list[dict] = []
    if name in ("paths", "all"):
        checks += suite_paths(n_max or 9, seed)
    if name in ("moment", "all"):
        checks += suite_moment(n_max or 7, seed)
    if name in ("certificates", "all"):
        checks += suite_certificates(n_max or 8, seed)
    if name in ("spectra", "all"):
        checks += suite_spectra(n_max or 9, seed)
    if name in ("bounds", "all"):
        checks += suite_bounds(n_max or 8, seed)
    if name in ("zero-one", "all"):
        checks += suite_zero_one(seed)
    return sorted(checks, key=lambda c: c["id"])
