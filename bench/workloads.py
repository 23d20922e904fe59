"""Seeded workloads of membership and oracle calls, with their ground truth.

A workload is a fixed *pass*: an ordered list of items, each one call into
the library or the in-process CLI.  The seed picks every relabeling,
combination weight and choice of U / F; the kinds, sizes and order of the
items do not depend on it, so the cost of a pass is the same for every
seed.  The program receives only the generated specs.

Expected verdicts hold by construction, never by running the program:

* every facet functional, and every convex combination of facets, is
  nonnegative on the tours X, hence in every P_k (verdict PSD);
* a*h_U + (1-a)*ones with 3 <= |U| <= n/2 and a > sqrt(n) lies outside P_1
  (the sqrt-n theorem puts lambda_min <= 0 at a = sqrt(n), and lambda_min
  is concave in a and positive at a = 0 off the common kernel), hence
  outside P_2 as well (verdict NOT_PSD).

All calls go through module attributes (``psd.membership_p1``), never
through names imported here, so the tracer sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any

from tsppsd import bounds, cli, functionals, moment, psd, rational, spectra, suites

# PSD / NOT_PSD witnesses are also checked on the enumerated matrix up to here.
ENUMERATED_CHECK_N = 8


@dataclass(frozen=True)
class Item:
    kind: str  # call type; set-up warms up one item of each kind
    label: str
    size: int  # n (suites: n_max); set-up warms up the smallest of each kind
    spec: dict  # the generated input, the only thing handed to the program
    expect: str  # "PSD", "NOT_PSD" or "ok"
    ref: Any = None  # the same functional, built here with its coloring, for checks
    path: str | None = None  # spec file of CLI items


# ---------------------------------------------------------------------------
# functional specs
# ---------------------------------------------------------------------------

def _edge(u: int, v: int) -> str:
    return f"{min(u, v)}-{max(u, v)}"


def facet_spec(kind: str, n: int, verts: list[int]) -> dict:
    """Spec of one facet, labelled by the vertex order `verts`.  Kinds: ones,
    subtour-<m>, edge-lower, edge-upper, two-matching-<|F|>."""
    if kind == "ones":
        return {"kind": "ones", "n": n}
    if kind.startswith("subtour-"):
        m = int(kind.split("-")[1])
        return {"kind": "subtour", "n": n, "U": sorted(verts[:m])}
    if kind in ("edge-lower", "edge-upper"):
        return {"kind": kind, "n": n, "edge": _edge(verts[0], verts[1])}
    if kind.startswith("two-matching-"):
        f = int(kind.split("-")[2])
        handle, outer = verts[:f], verts[f: 2 * f]
        return {
            "kind": "two-matching",
            "n": n,
            "U": sorted(handle),
            "F": [_edge(handle[i], outer[i]) for i in range(f)],
        }
    raise ValueError(f"unknown facet kind {kind!r}")


def mix_spec(n: int, m: int, rng: random.Random, one_first: bool = False) -> dict:
    """a*h_U + (1-a)*ones with |U| = m and a = floor(sqrt(n)) + 1 > sqrt(n)."""
    if not 3 <= m <= n // 2:
        raise ValueError(f"the sqrt-n theorem needs 3 <= m <= n/2, got m={m}, n={n}")
    a = math.isqrt(n) + 1
    return {
        "kind": "combination",
        "terms": [
            {"scale": f"{a}/1", "func": facet_spec(f"subtour-{m}", n, _order(n, rng, one_first))},
            {"scale": f"{1 - a}/1", "func": {"kind": "ones", "n": n}},
        ],
    }


_WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5))


def convex_spec(parts: list[str], n: int, rng: random.Random, one_first: bool) -> dict:
    """Seeded convex combination of facets.  One vertex permutation relabels
    every part, so the overlap of their supports is the same for every seed."""
    perm = _order(n, rng, one_first)
    w = [rng.choice(_WEIGHTS) for _ in parts[:-1]]
    w.append(1 - sum(w, Fraction(0)))
    return {
        "kind": "combination",
        "terms": [
            {"scale": rational.format_fraction(wi), "func": facet_spec(p, n, perm)}
            for wi, p in zip(w, parts)
        ],
    }


def _order(n: int, rng: random.Random, one_first: bool) -> list[int]:
    """Seeded vertex order with vertex 1 first or last.  The P_1 decision
    drops the degree relations through vertex 1, so whether a facet touches
    vertex 1 can change its path (deflation or not); fixing that per slot
    keeps the cost of a pass the same for every seed."""
    rest = rng.sample(range(2, n + 1), n - 1)
    return [1] + rest if one_first else rest + [1]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

FACETS = ("ones", "subtour-2", "subtour-n/4", "subtour-n/2", "edge-lower",
          "edge-upper", "two-matching-3")


def _facet_kind(kind: str, n: int) -> str:
    if kind == "subtour-n/4":
        return f"subtour-{n // 4}"
    if kind == "subtour-n/2":
        return f"subtour-{n // 2}"
    return kind


def _interleave(groups: list[list[Item]]) -> list[Item]:
    """Round-robin over groups, so sizes alternate through a pass and a slow
    spell of the host does not fall on one size only."""
    out: list[Item] = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def facet_p1_pass(rng: random.Random, tiny: bool) -> list[Item]:
    # (n, facet kinds, repeats).  One pass takes ~15 s on a 2-CPU Xeon; the
    # n=44 items are dense around p90, the n=24..36 items around p50.
    plan = [(8, FACETS, 1)] if tiny else [
        (24, FACETS, 3),
        (24, ("two-matching-5",), 1),
        (30, FACETS, 2),
        (36, FACETS, 1),
        (44, FACETS, 2),
        (60, ("ones", "subtour-n/4"), 1),
    ]
    groups = []
    for n, kinds, reps in plan:
        for rep in range(reps):
            group = []
            for j, k in enumerate(kinds):
                kind = _facet_kind(k, n)
                spec = facet_spec(kind, n, _order(n, rng, (rep + j) % 2 == 0))
                group.append(Item("membership_p1", f"{kind} n={n}", n, spec, "PSD"))
            groups.append(group)
    return _interleave(groups)


_CONVEX = (
    ("subtour-3", "edge-lower"),
    ("subtour-n/2", "two-matching-3"),
    ("subtour-3", "edge-upper", "ones"),
    ("edge-lower", "edge-upper", "subtour-n/2"),
)


def explicit_cli_pass(rng: random.Random, tiny: bool) -> list[Item]:
    # (n, PSD combinations, NOT_PSD mixes, matrix calls)
    plan = [(6, 1, 1, 1)] if tiny else [
        (8, 8, 8, 5), (9, 3, 3, 2), (10, 3, 3, 2), (12, 1, 1, 0),
    ]
    groups = []
    for n, n_psd, n_not, n_matrix in plan:
        group = []
        for i in range(max(n_psd, n_not)):
            if i < n_psd:
                parts = [_facet_kind(k, n) for k in _CONVEX[i % len(_CONVEX)]]
                spec = convex_spec(parts, n, rng, i % 2 == 0)
                group.append(("PSD", "+".join(parts), spec))
            if i < n_not:
                m = 3 + i % (n // 2 - 2)
                group.append(("NOT_PSD", f"mix-m{m}", mix_spec(n, m, rng, i % 2 == 1)))
        items = []
        for j, (expect, label, spec) in enumerate(group):
            items.append(_explicit_item("cli-membership", f"{label} n={n}", n, spec, expect))
            if j < n_matrix:
                items.append(_explicit_item("cli-matrix", f"matrix {label} n={n}", n, spec, "ok"))
        groups.append(items)
    return _interleave(groups)


def _explicit_item(kind, label, n, spec, expect) -> Item:
    ref = functionals.functional_from_spec(spec)
    explicit = functionals.functional_to_spec(ref)  # carries no coloring
    return Item(kind, label, n, explicit, expect, ref=ref)


def oracle_enum_pass(rng: random.Random, tiny: bool, seed: int) -> list[Item]:
    def facet(kind, n, one_first=False):
        return kind, facet_spec(kind, n, _order(n, rng, one_first)), "PSD"

    def mix(n, m):
        return f"mix-m{m}", mix_spec(n, m, rng), "NOT_PSD"

    def member(kind, k, n, made):
        label, spec, expect = made
        return Item(kind, f"k={k} {label} n={n}", n, {"k": k, "func": spec}, expect)

    k2 = [member("membership_pk", 2, 5, facet(f, 5, rep % 2 == 0))
          for rep in range(1 if tiny else 3)
          for f in ("ones", "subtour-2", "edge-lower", "edge-upper")]
    if not tiny:
        k2 += [member("membership_pk", 2, 6, facet("edge-lower", 6)),
               member("membership_pk", 2, 6, mix(6, 3))]
    # is_psd_float uses Jacobi up to dim 400 (n <= 28) and LAPACK eigh above
    float_cases = [(6, mix(6, 3))] if tiny else [
        (8, facet("subtour-4", 8)), (8, mix(8, 3)),
        (9, mix(9, 4)), (10, facet("edge-upper", 10)),
        (29, facet("subtour-14", 29)), (29, facet("edge-lower", 29)),
        (30, facet("ones", 30)), (31, facet("edge-upper", 31)),
    ]
    floats = [member("is_psd_float", 1, n, made) for n, made in float_cases]
    suite_sizes = {"zero-one": 0} if tiny else {
        "paths": 7, "moment": 6, "certificates": 7, "spectra": 7, "bounds": 6, "zero-one": 0,
    }
    suite_items = [
        Item("run_suite", f"suite {name}", size,
             {"suite": name, "n_max": size or None, "seed": seed}, "ok")
        for name, size in suite_sizes.items()
    ]
    sqrt_items = [Item("sqrt_n", f"sqrt-n n={n}", n, {"n": n}, "ok")
                  for n in ((6,) if tiny else (20, 22, 25))]
    grid_items = [Item("theorem1", f"theorem1 n={lo}..{hi}", lo, {"n_lo": lo, "n_hi": hi}, "ok")
                  for lo, hi in (((9, 12),) if tiny else ((9, 60), (61, 100)))]
    return _interleave([k2, floats, suite_items, sqrt_items, grid_items])


def build_pass(workload: str, seed: int, tiny: bool, workdir: str) -> list[Item]:
    rng = random.Random(seed)
    if workload == "facet-p1":
        items = facet_p1_pass(rng, tiny)
    elif workload == "explicit-cli":
        items = explicit_cli_pass(rng, tiny)
        for slot, item in enumerate(items):
            path = os.path.join(workdir, f"item{slot:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(item.spec, fh)
            items[slot] = replace(item, path=path)
    elif workload == "oracle-enum":
        items = oracle_enum_pass(rng, tiny, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def spec_digest(items: list[Item]) -> str:
    blob = json.dumps([[it.kind, it.spec] for it in items], sort_keys=True)
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def warmup_items(items: list[Item]) -> list[Item]:
    """The smallest item of each kind."""
    best: dict[str, Item] = {}
    for it in items:
        if it.kind not in best or it.size < best[it.kind].size:
            best[it.kind] = it
    return list(best.values())


def plant_fault(items: list[Item]) -> list[Item]:
    """Flip the expected verdict of the first item that has one."""
    out = list(items)
    for i, it in enumerate(out):
        if it.expect in ("PSD", "NOT_PSD"):
            out[i] = replace(it, expect="NOT_PSD" if it.expect == "PSD" else "PSD")
            break
    return out


# ---------------------------------------------------------------------------
# execution: `execute` is timed, `collect` is not
# ---------------------------------------------------------------------------

def execute(item: Item) -> Any:
    spec = item.spec
    if item.kind == "membership_p1":
        return psd.membership_p1(functionals.functional_from_spec(spec))
    if item.kind == "cli-membership":
        return cli.run(["membership", "--func", item.path, "--out", item.path + ".out"])
    if item.kind == "cli-matrix":
        return cli.run(["matrix", "--method", "closed-form", "--func", item.path,
                        "--out", item.path + ".out"])
    if item.kind == "membership_pk":
        return psd.membership_pk_enumerated(functionals.functional_from_spec(spec["func"]),
                                            spec["k"])
    if item.kind == "is_psd_float":
        f = functionals.functional_from_spec(spec["func"])
        return psd.is_psd_float(moment.moment_matrix_closed_form_k1(f))
    if item.kind == "run_suite":
        return suites.run_suite(spec["suite"], spec["n_max"], spec["seed"])
    if item.kind == "sqrt_n":
        return spectra.sqrt_n_nonpositivity(spec["n"])
    if item.kind == "theorem1":
        return [bounds.theorem1_constants(n, k)
                for n in range(spec["n_lo"], spec["n_hi"] + 1)
                for k in range(1, n // 2 + 1)]
    raise ValueError(f"unknown item kind {item.kind!r}")


@dataclass(frozen=True)
class Raised:
    error: str


def collect(item: Item, raw: Any) -> Any:
    """Outcome of one call: CLI items yield (exit code, output bytes)."""
    if item.path is not None and not isinstance(raw, Raised):
        try:
            with open(item.path + ".out", "rb") as fh:
                data = fh.read()
            os.remove(item.path + ".out")  # so a later call cannot pass on stale output
        except OSError:
            data = b""
        return (raw, data)
    return raw


def fingerprint(outcome: Any) -> str:
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks (never timed)
# ---------------------------------------------------------------------------

def check(item: Item, outcome: Any) -> str | None:
    """None when the outcome is right, else the reason it is wrong."""
    if isinstance(outcome, Raised):
        return f"raised {outcome.error}"
    kind = item.kind
    if kind in ("membership_p1", "membership_pk", "is_psd_float"):
        spec = item.spec if kind == "membership_p1" else item.spec["func"]
        k = 1 if kind == "membership_p1" else item.spec["k"]
        f = functionals.functional_from_spec(spec)
        witness = outcome.witness
        if outcome.status != item.expect:
            return f"verdict {outcome.status}, expected {item.expect}"
        if outcome.status == "NOT_PSD" and witness is None and kind != "is_psd_float":
            return "NOT_PSD without witness"
        return _witness_error(f, k, witness) if witness is not None else None
    if kind in ("cli-membership", "cli-matrix"):
        return _check_cli(item, *outcome)
    if kind == "run_suite":
        bad = [c["id"] for c in outcome if c["status"] != "pass"]
        if not outcome or bad:
            return f"suite failures {bad[:3]} of {len(outcome)} checks"
        return None
    if kind == "sqrt_n":
        n = item.spec["n"]
        if len(outcome) != n // 2 - 2 or not all(c.ok for c in outcome):
            return "sqrt-n nonpositivity check failed"
        return None
    if kind == "theorem1":
        for rep in outcome:
            if rep.a_k != Fraction(rep.n, rep.k) + rep.alpha_k or \
                    abs(rep.alpha_k) > Fraction(10, rep.n):
                return f"a_k inconsistent at n={rep.n}, k={rep.k}"
        return None
    return f"no check for kind {kind!r}"


def _check_cli(item: Item, code: int, data: bytes) -> str | None:
    n = item.size
    want_code = {"PSD": 0, "NOT_PSD": 1, "ok": 0}[item.expect]
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    try:
        out = json.loads(data)
    except ValueError:
        return "output is not JSON"
    if item.kind == "cli-matrix":
        rows = [[rational.parse_fraction(x) for x in row] for row in out["entries"]]
        d = 1 + n * (n - 1) // 2
        if out.get("n") != n or len(rows) != d or any(len(r) != d for r in rows):
            return "matrix has the wrong shape"
        if any(rows[i][j] != rows[j][i] for i in range(d) for j in range(i)):
            return "matrix is not symmetric"
        if sum(rows[i][i] for i in range(d)) != n + 1:
            return "trace differs from n + 1"
        return None
    if out.get("status") != item.expect or out.get("n") != n:
        return f"verdict {out.get('status')}, expected {item.expect}"
    if item.expect == "NOT_PSD":
        if "witness" not in out:
            return "NOT_PSD without witness"
        witness = [rational.parse_fraction(x) for x in out["witness"]]
        return _witness_error(item.ref, 1, witness)
    return None


def _witness_error(f, k: int, witness) -> str | None:
    """w^T A w < 0 exactly, on the closed-form matrix (k = 1) and, at small n,
    on the enumerated one."""
    mats = []
    if k == 1:
        mats.append(("closed-form", moment.moment_matrix_closed_form_k1(f)))
    if f.n <= ENUMERATED_CHECK_N:
        mats.append(("enumerated", moment.moment_matrix_enumerated_cycles(f.n, f, k)))
    if not mats:
        return f"no reference matrix for k={k} at n={f.n}"
    for name, M in mats:
        if len(witness) != M.dim:
            return f"witness length {len(witness)} != {name} dimension {M.dim}"
        nz = [(i, Fraction(w)) for i, w in enumerate(witness) if w]
        value = sum((wi * wj * M.entries[i][j] for i, wi in nz for j, wj in nz), Fraction(0))
        if value >= 0:
            return f"witness gives w^T A w = {value} >= 0 on the {name} matrix"
    return None
