"""Spans and counters around calls into starcoal, installed from outside.

A Tracer swaps chosen public functions of the starcoal modules for thin
wrappers while it is installed, and puts the originals back on exit.  A
function imported by name into several modules is replaced in each of
them, so calls made inside the library are seen too.  Each wrapped call
records one span (id, parent, name, start, end) in memory; the hottest
functions (flow, roots, QUADPACK and its integrand) only bump a counter.
Nothing is written until ``dump`` is called at the end of the run.
"""

from __future__ import annotations

import collections
import json
import sys
import time

# (module, attribute) pairs, reported as module.attribute.s for spanned
# calls and module.attribute.calls for counted ones.
SPANNED = (
    ("core", "quad_offset"),
    ("twotype", "sample_transition"),
    ("twotype", "stationary_sample"),
    ("twotype", "path_endpoint_ensemble"),
    ("twotype", "simulate_path"),
    ("selection", "simulate_path"),
    ("selection", "asg_simulate"),
    ("selection", "ua_time_ensemble"),
    ("selection", "selection_duality_check"),
    ("selection", "fixation_prob"),
    ("selection", "skeleton_matrix"),
    ("lines", "simulate_lines"),
    ("lines", "absorption_time_ensemble"),
    ("lines", "duality_check"),
    ("eigen", "pv_expectation_g_q1_numeric"),
    ("multitype", "markov_line_kernel"),
    ("cli", "main"),
)
# Spans named by the sample size as well, e.g. lines.an_distribution.n200.
SPANNED_BY_N = (("lines", "an_distribution"), ("lines", "an_distribution_spectral"))
SPANNED_METHODS = (("core", "MixedLaw", "quadrature_mass"), ("core", "MixedLaw", "mean"), ("core", "MixedLaw", "sample"))
COUNTED = (("selection", "flow"), ("selection", "roots"))


class Tracer:
    """Context manager that traces starcoal calls while it is active."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = [0]
        self._last_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _spanned(self, name: str, fn, by_n: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            label = f"{name}.n{args[0] if args else kwargs['n']}" if by_n else name
            with _Span(tracer, label):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _quadpack(self, fn):
        counts = self.counts

        def wrapper(func, *args, **kwargs):
            counts["core.quadpack.calls"] += 1

            def integrand(x, *extra):
                counts["core.integrand.evals"] += 1
                return func(x, *extra)

            return fn(integrand, *args, **kwargs)

        return wrapper

    def _suites(self, run_suites, suite_names):
        tracer = self

        def wrapper(names=None, seed=0):
            wanted = suite_names if names is None or names == "all" else tuple(names)
            results = []
            for suite in suite_names:
                if suite in wanted:
                    with _Span(tracer, f"verification.suite.{suite}"):
                        results.extend(run_suites([suite], seed=seed))
            return results

        return wrapper

    # -- installation ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")]

    def _replace_everywhere(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def __enter__(self):
        import scipy.integrate

        pkg = self.package
        for mod, attr in SPANNED:
            fn = getattr(getattr(pkg, mod), attr)
            self._replace_everywhere(fn, self._spanned(f"{mod}.{attr}", fn))
        for mod, attr in SPANNED_BY_N:
            fn = getattr(getattr(pkg, mod), attr)
            self._replace_everywhere(fn, self._spanned(f"{mod}.{attr}", fn, by_n=True))
        for mod, attr in COUNTED:
            fn = getattr(getattr(pkg, mod), attr)
            self._replace_everywhere(fn, self._counted(f"{mod}.{attr}", fn))
        for mod, cls_name, attr in SPANNED_METHODS:
            cls = getattr(getattr(pkg, mod), cls_name)
            fn = cls.__dict__[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._spanned(f"{mod}.{cls_name}.{attr}", fn))
        # The verify command reaches the suites through cli.run_suites; run
        # them one at a time so each suite gets its own span.  Suites draw
        # from disjoint seeded substreams, so the results are unchanged.
        cli = pkg.cli
        self._undo.append((cli, "run_suites", cli.run_suites))
        cli.run_suites = self._suites(cli.run_suites, pkg.verification.SUITE_NAMES)
        self._undo.append((scipy.integrate, "quad", scipy.integrate.quad))
        scipy.integrate.quad = self._quadpack(scipy.integrate.quad)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Seconds per span name, not counting a span nested in one of its own name,
        plus the call counts of every span name and counter."""
        parent_of = {sid: parent for sid, parent, _, _, _ in self.spans}
        name_of = {sid: name for sid, _, name, _, _ in self.spans}
        out: dict[str, float] = collections.defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            anc = parent
            while anc and name_of[anc] != name:
                anc = parent_of[anc]
            if not anc:
                out[f"{name}.s"] += end - start
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def dump(self, path: str, header: dict) -> None:
        """Write one JSON object per span, after a header line, to path."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "name": name,
                                "start": start - self.origin, "end": end - self.origin}) + "\n"
                )
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        tr._last_id += 1
        self.sid = tr._last_id
        self.parent = tr._stack[-1]
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.start, end))
        return False
