"""Span tracer that instruments tsppsd from outside the package.

Each layer entry point is wrapped by rebinding every attribute of every
loaded ``tsppsd.*`` module that holds the original function object, so a
call made through ``tsppsd.psd.exact_ldlt`` is traced as well as one made
through ``tsppsd.linalg.exact_ldlt``.  Methods are wrapped on their class.
Entry points that no longer exist are skipped and counted as missing, so
later deletions in the package do not break the benchmark.

A span records (id, name, parent id, item id, start, end).  A call whose
innermost open span already has the same name is not a new span: it is
part of that call, so ``calls`` counts outermost calls only.  Spans stay in
memory until ``write_spans``.  Only the traced run installs a tracer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable


def _dim_of_self(args, kwargs, result) -> dict:
    return {"dim_sum": args[0].dim, "dim_sq": args[0].dim ** 2}


def _dim_of_result(args, kwargs, result) -> dict:
    return {"dim_sum": result.dim, "dim_sq": result.dim ** 2}


def _matrix_arg_dim(args, kwargs, result) -> dict:
    return {"dim_max": len(args[0])}


def _certified_pd_stats(args, kwargs, result) -> dict:
    r = args[0].shape[0]
    return {"proved": int(bool(result)), "flops_computed": r**3 / 3}


def _ldlt_stats(args, kwargs, result) -> dict:
    return {"dim_max": len(args[0]), "not_psd": int(not result.is_psd)}


def _tours(args, kwargs, result) -> dict:
    return {"tours": len(result)}


def _cli_stats(args, kwargs, result) -> dict:
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    out = {"exit:" + (str(result) if result in (0, 1) else "other"): 1}
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if path != "-":
            try:
                with open(path, "rb") as fh:
                    out["bytes_out"] = len(fh.read())
            except OSError:
                pass
    return out


def _suite_stats(args, kwargs, result) -> dict:
    return {
        "checks": len(result),
        "failures": sum(1 for c in result if c["status"] != "pass"),
    }


@dataclass(frozen=True)
class EntryPoint:
    span: str  # span name, e.g. "linalg.exact_ldlt"
    module: str  # defining module
    attr: str  # "func" or "Class.method"
    stats: Callable[[tuple, dict, Any], dict] | None = None
    count_only: bool = False  # count calls without opening a span


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("cycles.enumerate", "tsppsd.cycles", "enumerate_cycles", _tours),
    EntryPoint("cycles.count", "tsppsd.cycles", "count_cycles_with_edge_set"),
    EntryPoint("cycles.count", "tsppsd.cycles", "count_cycles_containing"),
    EntryPoint("functionals.build", "tsppsd.functionals", "functional_from_spec"),
    EntryPoint("functionals.build", "tsppsd.functionals", "make_ones"),
    EntryPoint("functionals.build", "tsppsd.functionals", "make_subtour"),
    EntryPoint("functionals.build", "tsppsd.functionals", "make_edge_bound"),
    EntryPoint("functionals.build", "tsppsd.functionals", "make_two_matching"),
    EntryPoint("functionals.build", "tsppsd.functionals", "combine"),
    EntryPoint("functionals.build", "tsppsd.functionals", "average_on_x"),
    EntryPoint("moment.closed_form", "tsppsd.moment", "moment_matrix_closed_form_k1",
               _dim_of_result),
    EntryPoint("moment.closed_form", "tsppsd.moment", "closed_form_k1", _dim_of_result),
    EntryPoint("moment.closed_form", "tsppsd.moment", "ClosedFormK1.__init__",
               _dim_of_self),
    EntryPoint("moment.closed_form_entry", "tsppsd.moment", "closed_form_entry",
               count_only=True),
    EntryPoint("moment.enumerated", "tsppsd.moment", "moment_matrix_enumerated_cycles",
               _dim_of_result),
    EntryPoint("moment.enumerated", "tsppsd.moment", "moment_matrix_enumerated",
               _dim_of_result),
    EntryPoint("moment.enumerated", "tsppsd.moment", "quadratic_form_value"),
    EntryPoint("moment.star_check", "tsppsd.moment", "ClosedFormK1.star_kernel_verified"),
    EntryPoint("moment.extract", "tsppsd.moment", "ClosedFormK1.float_matrix"),
    EntryPoint("moment.extract", "tsppsd.moment", "ClosedFormK1.exact_entries"),
    EntryPoint("moment.extract", "tsppsd.moment", "ClosedFormK1.float_entry_error_bound"),
    EntryPoint("moment.extract", "tsppsd.moment", "ClosedFormK1.zero_rows"),
    EntryPoint("moment.extract", "tsppsd.moment", "ClosedFormK1.to_moment_matrix"),
    EntryPoint("moment.extract", "tsppsd.moment", "MomentMatrix.to_float"),
    EntryPoint("linalg.certified_pd", "tsppsd.linalg", "certified_pd", _certified_pd_stats),
    EntryPoint("linalg.exact_ldlt", "tsppsd.linalg", "exact_ldlt", _ldlt_stats),
    EntryPoint("linalg.jacobi", "tsppsd.linalg", "jacobi_eigh", _matrix_arg_dim),
    EntryPoint("psd.decide", "tsppsd.psd", "membership_p1"),
    EntryPoint("psd.decide", "tsppsd.psd", "membership_pk_enumerated"),
    EntryPoint("psd.decide", "tsppsd.psd", "is_psd_exact"),
    EntryPoint("psd.decide", "tsppsd.psd", "is_psd_float"),
    EntryPoint("spectra", "tsppsd.spectra", "closed_form_spectrum"),
    EntryPoint("spectra", "tsppsd.spectra", "verify_eigenpairs_exact"),
    EntryPoint("spectra", "tsppsd.spectra", "spectrum_matches_numerical"),
    EntryPoint("spectra", "tsppsd.spectra", "numerical_spectrum"),
    EntryPoint("spectra", "tsppsd.spectra", "sqrt_n_nonpositivity"),
    EntryPoint("spectra", "tsppsd.spectra", "ones_spectrum"),
    EntryPoint("spectra", "tsppsd.spectra", "eigenvector_families"),
    EntryPoint("spectra", "tsppsd.spectra", "residual_pair"),
    EntryPoint("bounds", "tsppsd.bounds", "bound_report"),
    EntryPoint("bounds", "tsppsd.bounds", "theorem1_constants"),
    EntryPoint("bounds", "tsppsd.bounds", "bound_oracle"),
    EntryPoint("bounds", "tsppsd.bounds", "f_counts"),
    EntryPoint("bounds", "tsppsd.bounds", "g_counts"),
    EntryPoint("bounds", "tsppsd.bounds", "proposition_bound"),
    EntryPoint("bounds", "tsppsd.bounds", "eo_subsets"),
    EntryPoint("cli", "tsppsd.cli", "run", _cli_stats),
    EntryPoint("suites", "tsppsd.suites", "run_suite", _suite_stats),
)

# Per-layer metrics: name -> unit.  Every traced run prints all of them.
PER_LAYER_UNITS: dict[str, str] = {
    "cycles.enumerate.calls": "count",
    "cycles.enumerate.self_s": "s",
    "cycles.enumerate.tours": "count",
    "cycles.count.calls": "count",
    "cycles.count.self_s": "s",
    "functionals.build.calls": "count",
    "functionals.build.self_s": "s",
    "moment.closed_form.calls": "count",
    "moment.closed_form.self_s": "s",
    "moment.closed_form.dim_sum": "count",
    "moment.closed_form.evals_per_entry": "ratio",
    "moment.enumerated.calls": "count",
    "moment.enumerated.self_s": "s",
    "moment.enumerated.dim_sum": "count",
    "moment.star_check.self_s": "s",
    "moment.extract.self_s": "s",
    "linalg.certified_pd.calls": "count",
    "linalg.certified_pd.self_s": "s",
    "linalg.certified_pd.proved_ratio": "ratio",
    "linalg.certified_pd.flops_computed": "flop",
    "linalg.exact_ldlt.calls": "count",
    "linalg.exact_ldlt.self_s": "s",
    "linalg.exact_ldlt.dim_max": "count",
    "linalg.exact_ldlt.not_psd_ratio": "ratio",
    "linalg.jacobi.calls": "count",
    "linalg.jacobi.self_s": "s",
    "linalg.jacobi.dim_max": "count",
    "psd.decide.calls": "count",
    "psd.decide.self_s": "s",
    "psd.decided.cholesky": "count",
    "psd.decided.deflation": "count",
    "psd.decided.exact": "count",
    "psd.decided.float": "count",
    "psd.exact_fallback_ratio": "ratio",
    "spectra.calls": "count",
    "spectra.self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "cli.exit.0": "count",
    "cli.exit.1": "count",
    "cli.exit.other": "count",
    "suites.checks": "count",
    "suites.failures": "count",
    "suites.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.entry_points.wrapped": "count",
    "trace.entry_points.missing": "count",
}

# PsdVerdict.method -> psd.decided bucket
_DECIDED = {
    "certified-cholesky": "cholesky",
    "certified-cholesky+deflation": "deflation",
    "exact-ldlt": "exact",
    "float-jacobi": "float",
}


class Tracer:
    def __init__(self) -> None:
        # span: [id, name, parent id, item id, start, end]
        self.spans: list[list] = []
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self.outermost_calls: Counter = Counter()  # (span name, attr) -> calls
        self.verdicts: Counter = Counter()  # (attr, method) -> count
        self.item: int | None = None
        self.wrapped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tsppsd" or name.startswith("tsppsd."))]
        for ep in ENTRY_POINTS:
            owner = sys.modules.get(ep.module)
            cls_name, _, meth = ep.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(meth) if isinstance(cls, type) else None
                if original is None:
                    self.missing.append(f"{ep.module}.{ep.attr}")
                    continue
                self._rebind(cls, meth, self._wrap(ep, original))
            else:
                original = getattr(owner, ep.attr, None)
                if not callable(original):
                    self.missing.append(f"{ep.module}.{ep.attr}")
                    continue
                wrapper = self._wrap(ep, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, name, wrapper)
            self.wrapped += 1

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, ep: EntryPoint, fn):
        stack, spans, stats = self._stack, self.spans, self.stats
        clock = time.perf_counter

        if ep.count_only:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                stats[ep.span]["calls"] += 1
                return fn(*args, **kwargs)
            return counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == ep.span:
                return fn(*args, **kwargs)
            span = [len(spans), ep.span, stack[-1][0] if stack else None,
                    self.item, clock(), None]
            spans.append(span)
            stack.append(span)
            self.outermost_calls[(ep.span, ep.attr)] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if ep.span == "psd.decide":
                self.verdicts[(ep.attr, result.method)] += 1
            if ep.stats is not None:
                for key, val in ep.stats(args, kwargs, result).items():
                    if key == "dim_max":
                        stats[ep.span][key] = max(stats[ep.span][key], val)
                    else:
                        stats[ep.span][key] += val
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------
    def self_times(self) -> Counter:
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for sid, name, _, _, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        self_s = self.self_times()
        calls: Counter = Counter()
        for (span, _), c in self.outermost_calls.items():
            calls[span] += c
        st = self.stats
        m: dict[str, float] = {}
        for layer in ("cycles.enumerate", "cycles.count", "functionals.build",
                      "moment.closed_form", "moment.enumerated", "linalg.certified_pd",
                      "linalg.exact_ldlt", "linalg.jacobi", "psd.decide", "spectra",
                      "bounds", "cli"):
            m[f"{layer}.calls"] = calls[layer]
        for layer in ("cycles.enumerate", "cycles.count", "functionals.build",
                      "moment.closed_form", "moment.enumerated", "moment.star_check",
                      "moment.extract", "linalg.certified_pd", "linalg.exact_ldlt",
                      "linalg.jacobi", "psd.decide", "spectra", "bounds", "cli", "suites"):
            m[f"{layer}.self_s"] = self_s[layer]
        m["cycles.enumerate.tours"] = st["cycles.enumerate"]["tours"]
        cf = st["moment.closed_form"]
        m["moment.closed_form.dim_sum"] = cf["dim_sum"]
        m["moment.closed_form.evals_per_entry"] = _ratio(
            st["moment.closed_form_entry"]["calls"], cf["dim_sq"])
        m["moment.enumerated.dim_sum"] = st["moment.enumerated"]["dim_sum"]
        pd = st["linalg.certified_pd"]
        m["linalg.certified_pd.proved_ratio"] = _ratio(pd["proved"], calls["linalg.certified_pd"])
        m["linalg.certified_pd.flops_computed"] = pd["flops_computed"]
        ld = st["linalg.exact_ldlt"]
        m["linalg.exact_ldlt.dim_max"] = ld["dim_max"]
        m["linalg.exact_ldlt.not_psd_ratio"] = _ratio(ld["not_psd"], calls["linalg.exact_ldlt"])
        m["linalg.jacobi.dim_max"] = st["linalg.jacobi"]["dim_max"]
        decided: Counter = Counter()
        for (_, method), c in self.verdicts.items():
            decided[_DECIDED.get(method, "other")] += c
        for bucket in ("cholesky", "deflation", "exact", "float"):
            m[f"psd.decided.{bucket}"] = decided[bucket]
        # Base: membership decisions (P_1 and enumerated P_k), not all psd calls.
        membership = ("membership_p1", "membership_pk_enumerated")
        m["psd.exact_fallback_ratio"] = _ratio(
            sum(c for (attr, meth), c in self.verdicts.items()
                if attr in membership and meth == "exact-ldlt"),
            sum(self.outermost_calls[("psd.decide", attr)] for attr in membership),
        )
        cli = st["cli"]
        m["cli.bytes_out"] = cli["bytes_out"]
        for code in ("0", "1", "other"):
            m[f"cli.exit.{code}"] = cli[f"exit:{code}"]
        m["suites.checks"] = st["suites"]["checks"]
        m["suites.failures"] = st["suites"]["failures"]
        m["trace.overhead_ratio"] = overhead_ratio
        m["trace.entry_points.wrapped"] = self.wrapped
        m["trace.entry_points.missing"] = len(self.missing)
        return {name: m[name] for name in PER_LAYER_UNITS}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"missing_entry_points": self.missing}) + "\n")
            for sid, name, parent, item, start, end in self.spans:
                fh.write(json.dumps([sid, name, parent, item, start, end]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
