"""Spans around the public functions of each heightzeta module, installed
from outside the package for one traced pass and removed afterwards.

Every module namespace that binds a wrapped function gets the wrapper
(``quad_oscillatory`` is bound in localfield, density and oscillatory).
Spans are (name, start, end, parent) and stay in memory until the run
writes them out.  Hot primitives only count their calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("census", "density", "oscillatory", "localfield", "catalog", "boundary", "cli")


def _is_zero_char(a) -> bool:
    if a is None:
        return True
    if isinstance(a, (tuple, list)):
        return all(t == 0 for t in a)
    return a == 0


def _place_kind(place) -> str:
    return "finite" if place.is_finite else "arch"


def _span_names():
    """(owner, attribute, namer) for every traced function; the namer maps
    the call arguments to a span name '<layer>.<part>[.<detail>]'."""
    from heightzeta import boundary, catalog, census, cli, density, localfield, oscillatory

    def enum_name(model, S, *a, **k):
        return f"census.enumerate.{model.id}.{'fin' if any(v.is_finite for v in S) else 'inf'}"

    def osc1d(place, *a, **k):
        return "oscillatory.finite" if place.is_finite else f"oscillatory.{place.kind}"

    fixed = lambda name: (lambda *a, **k: name)
    return [
        (census, "enumerate_points", enum_name),
        (census, "count_sintegers", fixed("census.sintegers")),
        (census, "volume_V", fixed("census.volume")),
        (census, "count_table", fixed("census.table")),
        (census, "equidistribution_test", fixed("census.region")),
        (census, "fit_asymptotic", fixed("census.fit")),
        (census, "poisson_crosscheck", fixed("census.poisson")),
        (density, "denef_density", fixed("density.denef")),
        (density, "brute_density_oracle", fixed("density.oracle")),
        (density, "fourier_finite", fixed("density.fourier")),
        (density, "char_bound_quantity", fixed("density.charbound")),
        (density, "arch_density", lambda model, a, *r, **k: "density.arch0" if _is_zero_char(a) else "density.arch"),
        (density, "euler_product", fixed("density.euler")),
        (density, "theta_constant", fixed("density.theta")),
        (density, "theta_factored", fixed("density.factored")),
        (density, "tau_adelic", fixed("density.tau")),
        (density, "tau_max_boundary", fixed("density.tau")),
        (oscillatory, "osc_integral_1d", osc1d),
        (oscillatory, "coset_phase_integral", fixed("oscillatory.finite")),
        (oscillatory, "osc_integral_nd", lambda place, *a, **k: f"oscillatory.nd.{_place_kind(place)}"),
        (oscillatory, "inverse_phase_integral", lambda place, *a, **k: f"oscillatory.inverse.{_place_kind(place)}"),
        (oscillatory, "decay_report", fixed("oscillatory.report")),
        (localfield, "quad_complex", fixed("localfield.quad")),
        (localfield, "quad_oscillatory", fixed("localfield.quad")),
        (localfield, "tate_integral", fixed("localfield.tate")),
        (localfield, "fourier_test_fn", fixed("localfield.fourier")),
        (localfield.ArchFourierTransform, "__call__", fixed("localfield.fourier")),
        (catalog.CompactificationModel, "local_height", fixed("catalog.height")),
        (catalog.CompactificationModel, "height_base", fixed("catalog.height")),
        (catalog.CompactificationModel, "height", fixed("catalog.height")),
        (catalog.CompactificationModel, "is_integral", fixed("catalog.height")),
        (catalog, "get_model", fixed("catalog.lookup")),
        (catalog, "places_from_spec", fixed("catalog.lookup")),
        (boundary, "exponent_b", fixed("boundary")),
        (boundary, "pole_orders", fixed("boundary")),
        (boundary, "ep_rank", fixed("boundary")),
        (boundary, "clemens_complex", fixed("boundary")),
        (boundary, "divisor_coefficients", fixed("boundary")),
        (boundary, "character_strata", fixed("boundary")),
        (cli, "main", fixed("cli")),
    ]


_COUNTED = [
    ("localfield", "PhaseSum", "add", "localfield.phasesum.adds"),
    ("localfield", "PadicContext", "valuation", "localfield.padic.calls"),
    ("localfield", "PadicContext", "frac_part", "localfield.padic.calls"),
    ("catalog", "CompactificationModel", "stratum_counts", "catalog.strata.calls"),
]


class Tracer:
    """Collects spans [name, start, end, parent, failed] and call counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.quad_err = 0.0
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, False])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = failed
        self.stack.pop()

    def _span(self, fn, namer):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(namer(*args, **kwargs))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            span = tracer.spans[idx]
            if span[0] == "localfield.quad" and (span[3] < 0 or tracer.spans[span[3]][0] != "localfield.quad"):
                tracer.quad_err += float(out[1])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "heightzeta" or n.startswith("heightzeta.")]
        for owner, attr, namer in _span_names():
            original = owner.__dict__[attr]
            wrapper = self._span(original, namer)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, name, wrapper)
        for modname, cls, attr, name in _COUNTED:
            owner = getattr(sys.modules[f"heightzeta.{modname}"], cls)
            self._patch(owner, attr, self._counter(owner.__dict__[attr], name))

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("index,parent,name,start,end,failed\n")
            for i, (name, t0, t1, parent, failed) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0!r},{t1!r},{int(failed)}\n")


def layer_metrics(tracer: Tracer, job_failed_by_layer: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced pass."""
    spans, own = tracer.spans, tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        self_s[s[0]] += t
        calls[s[0]] += 1
    m: dict[str, tuple[float, str]] = {}

    def total(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    def ncalls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "."))

    for mid in ("E1", "E2", "E3", "E4", "E5", "E6"):
        m[f"census.enumerate.{mid}.self_s"] = (total(f"census.enumerate.{mid}"), "s")
    for kind in ("inf", "fin"):
        m[f"census.enumerate.{kind}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith("census.enumerate.") and k.endswith("." + kind)), "s")
    for part in ("volume", "region", "fit", "poisson"):
        m[f"census.{part}.self_s"] = (total(f"census.{part}"), "s")
    for part in ("euler", "denef", "oracle", "arch"):
        m[f"density.{part}.calls"] = (ncalls(f"density.{part}"), "count")
        m[f"density.{part}.self_s"] = (total(f"density.{part}"), "s")
    m["density.theta.self_s"] = (total("density.theta"), "s")
    # denef calls made under a theta span, per theta call
    parent_theta = _under(spans, "density.theta")
    under = sum(1 for i, s in enumerate(spans) if s[0] == "density.denef" and parent_theta[i])
    m["density.denef_per_theta"] = (under / max(1, ncalls("density.theta")), "count/theta")
    for part in ("finite", "real", "complex", "nd", "inverse"):
        m[f"oscillatory.{part}.calls"] = (ncalls(f"oscillatory.{part}"), "count")
        m[f"oscillatory.{part}.self_s"] = (total(f"oscillatory.{part}"), "s")
    values = {"oscillatory.real", "oscillatory.complex", "oscillatory.nd.arch", "oscillatory.inverse.arch"}
    under_value = _under(spans, *values)
    nquad = sum(1 for i, s in enumerate(spans) if s[0] == "localfield.quad" and under_value[i]
                and spans[s[3]][0] != "localfield.quad")
    nvalues = sum(calls[v] for v in values)
    m["oscillatory.quad_per_value"] = (nquad / max(1, nvalues), "count/value")
    outer_quad = sum(1 for s in spans if s[0] == "localfield.quad" and (s[3] < 0 or spans[s[3]][0] != "localfield.quad"))
    m["localfield.quad.calls"] = (outer_quad, "count")
    m["localfield.quad.self_s"] = (total("localfield.quad"), "s")
    m["localfield.quad.err_sum"] = (tracer.quad_err, "abs_err")
    m["localfield.tate.self_s"] = (total("localfield.tate"), "s")
    m["localfield.phasesum.adds"] = (tracer.counts["localfield.phasesum.adds"], "count")
    m["localfield.padic.calls"] = (tracer.counts["localfield.padic.calls"], "count")
    m["catalog.height.calls"] = (ncalls("catalog.height"), "count")
    m["catalog.height.self_s"] = (total("catalog.height"), "s")
    m["catalog.strata.calls"] = (tracer.counts["catalog.strata.calls"], "count")
    for layer in ("boundary", "cli"):
        m[f"{layer}.calls"] = (ncalls(layer), "count")
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = (total(layer), "s")
    for layer in LAYERS:
        m[f"{layer}.failed"] = (job_failed_by_layer.get(layer, 0), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _under(spans, *names) -> list[bool]:
    """For each span, whether one of its ancestors is named in names."""
    flag = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        flag[i] = p >= 0 and (spans[p][0] in names or flag[p])
    return flag
