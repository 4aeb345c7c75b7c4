"""The three seeded workloads, driven through ``repro``'s public API.

All load comes from one caller thread in a closed loop: the next request
is sent only after the previous one returned. The untraced run starts
no thread of its own; the traced run's probes add the ``os.cpu_count()``
pool threads of the parallel plane (see ``layers.py``).

Every workload runs the same phases, interleaved unit by unit (one solve
round, then one request window, ...) so host drift hits every phase
alike, with ``gc.collect()`` only between units:

* set-up -- cold ``optimize()`` plus the operator's first apply, repeated
  with a fresh plan cache and reported as a median (``setup_s``);
* solve rounds -- serial CG to ``CG_RTOL`` on the workload's SPD systems
  (``solve_s``);
* request windows -- single-vector and 8-column requests (``call_*``,
  ``calls_per_s``, ``multi_call_p50_us``).

Every timing in the result is host-adjusted: the host alternates within
fractions of a second between a fast and a slow state (most likely a
co-tenant on the same core), and the share of time spent slow drifts from
run to run. Each timed unit is therefore paired with a fixed SciPy probe
timed with it (``HostProbe``), and adjusted values are scaled to the
probe's nominal time. Raw values are printed beside them.

The workloads differ in what their requests and systems are; see
``README.md`` for why each was chosen.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import OrderedDict, deque
from statistics import fmean, median

import numpy as np
import scipy.sparse as sp

from oracle import Oracle, apply_error, solve_error
from spans import Spans
from stats import (
    TAIL_PERCENTILE,
    min_samples_for_tail,
    state_slope,
    windowed_tail,
)

from repro import KNL, AdaptiveSpMV, CSRMatrix, Tracer, cg
from repro.matrices import generators as gen

CG_RTOL = 1e-8
CG_MAXITER = 5000
MULTI_COLS = 8
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 15
#: Steady cycles a run makes at least, whatever ``--seconds`` says.
MIN_CYCLES = 2
#: Pooled request inputs per operator (drawn once, reused).
INPUT_POOL = 4
#: The host probe's time in the host's fast state (2-CPU Xeon VM, 2 MB
#: L2); adjusted timings read as if every probe had taken this long.
PROBE_NOMINAL_S = 20e-6
#: CG iterations between host probes during a solve.
PROBE_EVERY = 25
#: For each host-adjusted metric, the phase whose probes adjust it and
#: the power of the probe its raw value is taken to follow: times grow
#: with the probe, rates fall with it.
ADJUSTED_BY = {
    "setup_s": ("setup", 1),
    "solve_s": ("solve", 1),
    "call_p50_us": ("requests", 1),
    "call_tail_us": ("requests", 1),
    "calls_per_s": ("requests", -1),
    "multi_call_p50_us": ("requests", 1),
}

pc = time.perf_counter


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spd(csr: CSRMatrix, shift: float = 1.0) -> CSRMatrix:
    """Symmetrise ``|A| + |A|^T`` and make it strictly diagonally
    dominant, keeping the sparsity pattern's character."""
    s = csr.to_scipy()
    s = abs(s) + abs(s.T)
    s = (s - sp.diags(s.diagonal())).tocsr()
    s.eliminate_zeros()
    d = np.asarray(s.sum(axis=1)).ravel() + shift
    return CSRMatrix.from_scipy((s + sp.diags(d)).tocsr())


class HostProbe:
    """A fixed SciPy CSR matvec (2-D Laplacian on a 64 x 64 grid, 300 KB),
    built without ``repro`` so no change to the program moves it. Timed
    right after a unit, it tells which state the host was in. Only its
    third call is timed: after a 65k-row request the second call still
    ran about 10% slower than after a 1k-row one, the third within 1%,
    so the footprint of the work before it does not leak into the
    probe."""

    def __init__(self):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(64, 64))
        eye = sp.identity(64)
        self.S = (sp.kron(eye, t) + sp.kron(t, eye)).tocsr()
        self.x = np.ones(self.S.shape[1])

    def time(self) -> float:
        self.S @ self.x
        self.S @ self.x
        t0 = pc()
        self.S @ self.x
        return pc() - t0


def adjusted(seconds: float, probe: float) -> float:
    """``seconds`` scaled to a host whose probe takes the nominal time."""
    return seconds * PROBE_NOMINAL_S / probe


class Reference:
    """SciPy reference for one matrix: ``A``, ``|A|`` and checks."""

    def __init__(self, csr: CSRMatrix):
        self.S = csr.to_scipy()
        self.absS = abs(self.S)

    def expect(self, x) -> tuple:
        """``(x, A @ x, |A| @ |x|)``: the input, its reference and the
        scale its rounding error is bounded by."""
        return x, self.S @ x, self.absS @ np.abs(x)

    def check(self, y, x) -> str | None:
        return apply_error(y, *self.expect(x)[1:])


class System:
    """One SPD system ``A x = b`` and the operator that solves it."""

    def __init__(self, name: str, csr: CSRMatrix, rng):
        self.name = name
        self.csr = csr
        self.ref = Reference(csr)
        self.b = self.ref.S @ rng.standard_normal(csr.shape[0])
        self.op = None
        self.serial = None
        self.iterations: int | None = None

    def plan(self, optimizer: AdaptiveSpMV) -> None:
        self.op = optimizer.optimize(self.csr)
        self.serial = self.op.executor()


class Request:
    """One prepared request: ``call(spans, parent)`` returns the output,
    recording child spans when ``spans`` is given; ``check(y)`` returns a
    problem or None. Inputs are prepared before timing."""

    __slots__ = ("label", "multi", "call", "check")

    def __init__(self, label, multi, call, check):
        self.label = label
        self.multi = multi
        self.call = call
        self.check = check


class Workload:
    """Shared phase runner; subclasses supply inputs and requests."""

    name = ""
    #: requests per window; sized so a window holds enough single-vector
    #: requests for ten samples beyond the tail percentile.
    window: int
    #: one request in ``multi_every`` is an 8-column one.
    multi_every = 4
    #: serial solves of each system per solve round.
    solves_per_round = 1

    def __init__(self, seed: int, seconds: float, traced: bool):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.traced = traced
        self.rng = np.random.default_rng(self.seed)
        self.nthreads = os.cpu_count() or 1
        self.oracle = Oracle()
        self.probe = HostProbe()
        self.spans = Spans() if traced else None
        self.systems: list[System] = []
        self.optimizers: list[AdaptiveSpMV] = []
        #: (traced, raw, adjusted, probe): per repetition, means over
        #: matrices.
        self.setups: list[tuple[bool, float, float, float]] = []
        #: (traced, system name, seconds, mean probe) per serial solve.
        self.solves: list[tuple[bool, str, float, float]] = []
        self.windows: list[dict] = []
        self.cycles = 0
        singles = self.window - self.window // self.multi_every
        if singles < min_samples_for_tail():
            raise ValueError(f"{self.name}: window too small for the tail")

    # -- subclass hooks --------------------------------------------------

    def build_inputs(self) -> None:
        raise NotImplementedError

    def setup_round(self, spans_on: bool) -> list[tuple[float, float]]:
        """One cold set-up of every set-up matrix; per matrix, its seconds
        and the host probe timed right after."""
        raise NotImplementedError

    def requests(self, n: int) -> list[Request]:
        raise NotImplementedError

    # -- shared phases ---------------------------------------------------

    def optimizer(self, **kwargs) -> AdaptiveSpMV:
        opt = AdaptiveSpMV(KNL, **kwargs)
        self.optimizers.append(opt)
        return opt

    def cold_setup(self, opt: AdaptiveSpMV, csr: CSRMatrix, x, spans_on,
                   serve=lambda op: op.executor()):
        """Time ``optimize()`` on a structure not in ``opt``'s cache plus
        the first apply; returns ``((seconds, probe), server)``."""
        spans = self.spans if spans_on else None
        if spans is None:
            t0 = pc()
            op = opt.optimize(csr)
            server = serve(op)
            y = server.matvec(x)
            t1 = pc()
        else:
            tracer = Tracer()
            with spans.span("setup") as root:
                t0 = pc()
                op = opt.optimize(csr, tracer=tracer)
                ta = pc()
                server = serve(op)
                tb = pc()
                y = server.matvec(x)
                t1 = pc()
            opt_id = spans.add("core.optimize", t0, ta, root)
            spans.add_tracer(tracer, t0, opt_id)
            spans.add("engine.build", ta, tb, root)
            spans.add("engine.apply", tb, t1, root)
        probe = self.probe.time()
        ref = Reference(csr)
        self.oracle.run(f"{self.name}/setup", lambda: ref.check(y, x),
                        lambda: ref.check(serve(op).matvec(x), x))
        return (t1 - t0, probe), server

    def solve(self, system: System, ex, label: str, probed: bool = False):
        """One checked CG solve; returns ``(seconds, mean probe, result)``.

        A solve spans many host state changes, so when ``probed`` the host
        probe runs every ``PROBE_EVERY`` iterations from CG's callback; its
        time is taken out of the solve's and its mean adjusts the solve.
        """
        probes: list[float] = []
        spent = [0.0]

        def callback(k, rnorm):
            if k % PROBE_EVERY == 0:
                t = pc()
                probes.append(self.probe.time())
                spent[0] += pc() - t

        t0 = pc()
        res = cg(ex, system.b, tol=CG_RTOL, maxiter=CG_MAXITER,
                 callback=callback if probed else None)
        seconds = pc() - t0 - spent[0]
        probe = sum(probes) / len(probes) if probes else None
        S, b = system.ref.S, system.b

        def replay():
            again = cg(ex, b, tol=CG_RTOL, maxiter=CG_MAXITER)
            return solve_error(S, b, again, CG_RTOL, system.iterations)

        ok = self.oracle.run(
            f"{self.name}/solve/{system.name}/{label}",
            lambda: solve_error(S, b, res, CG_RTOL, system.iterations),
            replay,
        )
        if ok and system.iterations is None:
            # CG on one operator is deterministic, and every executor of
            # a plan is bit-identical to serial, so every later solve of
            # this system must take the same number of iterations.
            system.iterations = res.iterations
        return seconds, probe, res

    def solve_round(self, spans_on: bool) -> None:
        for system in self.systems:
            for _ in range(self.solves_per_round):
                t0 = pc()
                seconds, probe, _ = self.solve(system, system.serial,
                                               "serial", probed=True)
                if spans_on:
                    self.spans.add("solvers.cg", t0, pc())
                self.solves.append((spans_on, system.name, seconds, probe))

    def request_window(self, spans_on: bool, n: int | None = None) -> None:
        """Send one window of requests back to back; each output is
        checked right after its call, off the clock."""
        spans = self.spans if spans_on else None
        reqs = self.requests(n or self.window)
        #: (seconds, probe) per request; the probe is off the clock.
        singles: list[tuple[float, float]] = []
        multis: list[tuple[float, float]] = []
        checking = 0.0
        start = pc()
        for req in reqs:
            t0 = pc()
            try:
                if spans is None:
                    y = req.call(None, None)
                else:
                    with spans.span("request") as root:
                        y = req.call(spans, root)
            except Exception as exc:  # counted as a failed request
                y = exc
            t1 = pc()
            (multis if req.multi else singles).append(
                (t1 - t0, self.probe.time()))
            replay = (lambda req=req: req.check(req.call(None, None)))
            if isinstance(y, Exception):
                self.oracle.record(req.label, f"{type(y).__name__}: {y}",
                                   replay)
            else:
                self.oracle.run(req.label, lambda: req.check(y), replay)
            t2 = pc()
            checking += t2 - t1
            if spans is not None:
                spans.add("oracle.check", t1, t2, root)
        busy = pc() - start - checking
        self.windows.append({"traced": spans_on, "singles": singles,
                             "multis": multis, "busy_s": busy})

    @staticmethod
    def _latencies(pairs, adjust: bool) -> list[float]:
        return [adjusted(s, p) if adjust else s for s, p in pairs]

    def warm_up(self) -> None:
        """A short first solve of each system and a short first window,
        off the books: they pay lazy allocation and cache fill once."""
        for system in self.systems:
            cg(system.serial, system.b, tol=CG_RTOL, maxiter=20)
        self.request_window(False, 4 * self.multi_every)
        self.windows.pop()

    def run(self) -> None:
        self.build_inputs()
        for rep in range(SETUP_REPS):
            spans_on = self.traced and rep % 2 == 1
            gc.collect()
            pairs = self.setup_round(spans_on)
            self.setups.append((
                spans_on,
                sum(s for s, _ in pairs) / len(pairs),
                sum(adjusted(s, p) for s, p in pairs) / len(pairs),
                sum(p for _, p in pairs) / len(pairs),
            ))
        self.warm_up()
        gc.collect()
        start = pc()
        min_cycles = 2 * MIN_CYCLES if self.traced else MIN_CYCLES
        while True:
            t0 = pc()
            spans_on = self.traced and self.cycles % 2 == 1
            self.solve_round(spans_on)
            gc.collect()
            self.request_window(spans_on)
            gc.collect()
            self.cycles += 1
            # Stop before a cycle that would overrun the measuring time.
            if (self.cycles >= min_cycles
                    and pc() + (pc() - t0) > start + self.seconds):
                break

    # -- results ---------------------------------------------------------

    def solve_seconds(self, traced: bool = False,
                      adjust: bool = False) -> float:
        """Summed over systems, the median serial solve of each."""
        return sum(
            median(adjusted(s, p) if adjust else s
                   for t, name, s, p in self.solves
                   if t == traced and name == system.name)
            for system in self.systems
        )

    def metrics(self, traced: bool = False,
                adjust: bool = True) -> dict[str, float]:
        """End-to-end metrics over the untraced (or traced) units,
        host-adjusted (or raw).

        Requests and set-ups are short next to the host's state changes,
        so each is adjusted by the probe timed right after it. Solves and
        a window's busy time span many state changes, so each is adjusted
        by the mean of the probes taken during it (or after each of the
        window's requests), which like it grows linearly with the share of
        time the host spent slow.
        """
        windows = [w for w in self.windows if w["traced"] == traced]
        lat = self._latencies
        singles = [v for w in windows for v in lat(w["singles"], adjust)]
        multis = [v for w in windows for v in lat(w["multis"], adjust)]
        tail, _ = windowed_tail([lat(w["singles"], adjust) for w in windows])

        def busy(w):
            if not adjust:
                return w["busy_s"]
            pairs = w["singles"] + w["multis"]
            return adjusted(w["busy_s"], sum(p for _, p in pairs) / len(pairs))

        requests = sum(len(w["singles"]) + len(w["multis"]) for w in windows)

        return {
            "setup_s": median(a if adjust else r
                              for t, r, a, _ in self.setups if t == traced),
            "solve_s": self.solve_seconds(traced, adjust),
            "call_p50_us": 1e6 * median(singles),
            "call_tail_us": 1e6 * tail,
            "calls_per_s": requests / sum(busy(w) for w in windows),
            "multi_call_p50_us": 1e6 * median(multis),
            "peak_rss_mb": peak_rss_mb(),
        }

    def counts(self) -> dict:
        """Sample counts behind the untraced metrics."""
        windows = [w for w in self.windows if not w["traced"]]
        return {
            "setups": sum(1 for t, *_ in self.setups if not t),
            "serial_solves": sum(1 for t, *_ in self.solves if not t),
            "windows": len(windows),
            "single_requests": sum(len(w["singles"]) for w in windows),
            "multi_requests": sum(len(w["multis"]) for w in windows),
            "tail": f"p{TAIL_PERCENTILE:g} of each window, median over "
                    f"windows",
            "cycles": self.cycles,
            "probe_s": {"nominal": PROBE_NOMINAL_S, **self.probe_means()},
        }

    def state_slopes(self) -> dict[str, float | None]:
        """``stats.state_slope`` of the untraced samples behind each metric
        adjusted sample by sample: whether, within this run, a sample's
        time follows the probe timed right after it."""
        windows = [w for w in self.windows if not w["traced"]]
        singles = [pair for w in windows for pair in w["singles"]]
        return {
            "setup_s": state_slope([(r, p) for t, r, _, p in self.setups
                                    if not t]),
            "call_p50_us": state_slope(singles),
            "call_tail_us": state_slope(singles, TAIL_PERCENTILE),
            "multi_call_p50_us": state_slope(
                [pair for w in windows for pair in w["multis"]]),
        }

    def probe_means(self) -> dict[str, float]:
        """Mean host probe of each untraced phase (see ADJUSTED_BY). The
        mean grows linearly with the share of time the host spent slow;
        the median of a two-state mixture jumps from one state to the
        other."""
        windows = [w for w in self.windows if not w["traced"]]
        return {
            "setup": fmean(p for t, *_, p in self.setups if not t),
            "solve": fmean(p for t, *_, p in self.solves if not t),
            "requests": fmean(p for w in windows
                              for _, p in w["singles"] + w["multis"]),
        }


class Served:
    """One operator served to requests, with pooled inputs whose SciPy
    references are computed once, so checking a request is cheap."""

    def __init__(self, csr: CSRMatrix, rng):
        self.csr = csr
        self.server = None
        ref = Reference(csr)
        n = csr.shape[1]
        self.inputs = {
            multi: [ref.expect(rng.standard_normal(shape))
                    for _ in range(INPUT_POOL)]
            for multi, shape in ((False, n), (True, (n, MULTI_COLS)))
        }


class ServedWorkload(Workload):
    """Requests are applies on operators planned once, in set-up."""

    def requests(self, n: int) -> list[Request]:
        """A window: every ``multi_every``-th request is 8-column; each
        kind spreads evenly over the operators in a seeded order."""
        served = self.served
        n_multi = n // self.multi_every
        picks = {
            multi: list(self.rng.permutation(count) % len(served))
            for multi, count in ((False, n - n_multi), (True, n_multi))
        }
        reqs = []
        for i in range(n):
            multi = i % self.multi_every == self.multi_every - 1
            s = served[picks[multi].pop()]
            x, expected, bound = s.inputs[multi][
                int(self.rng.integers(INPUT_POOL))]
            reqs.append(self._request(s.server, x, expected, bound, multi))
        return reqs

    def _request(self, server, x, expected, bound, multi) -> Request:
        name = "engine.apply_multi" if multi else "engine.apply"
        apply = server.apply_multi if multi else server.apply

        def call(spans, parent):
            if spans is None:
                return apply(x)
            with spans.span(name, parent):
                return apply(x)

        return Request(f"{self.name}/{name}", multi, call,
                       lambda y: apply_error(y, expected, bound))


class CgSolve(ServedWorkload):
    """Two ~65k-row SPD systems planned once, then solved by CG; the
    Poisson operator also serves single and 8-column requests."""

    name = "cg-solve"
    window = 280

    def build_inputs(self) -> None:
        poisson = gen.poisson2d(256)
        graph = spd(gen.power_law(65_536, avg_deg=2.5, seed=self.seed))
        self.systems = [System("poisson2d", poisson, self.rng),
                        System("power-law", graph, self.rng)]
        # One served operator: with two operators of different cost the
        # median would sit in the gap between their latencies.
        self.served = [Served(poisson, self.rng)]

    def setup_round(self, spans_on: bool) -> list[tuple[float, float]]:
        opt = self.optimizer()
        times = [
            self.cold_setup(opt, s.csr, s.b, spans_on)[0]
            for s in self.systems
        ]
        if self.systems[0].serial is None:
            for system in self.systems:
                system.plan(opt)
            self.served[0].server = self.systems[0].serial
        return times


class Anchored(Workload):
    """Workloads whose solve phase is one 16k-row 2-D Poisson anchor,
    solved a few times a round so its median has samples to work with."""

    solves_per_round = 3

    def plan_anchor(self) -> None:
        system = System("poisson2d-16k", gen.poisson2d(128), self.rng)
        system.plan(AdaptiveSpMV(KNL, plan_cache=False))
        self.systems.append(system)


class SmallCalls(Anchored, ServedWorkload):
    """Four ~2k-row matrices, guarded, served through the plan's stack."""

    name = "small-calls"
    window = 1200

    def build_inputs(self) -> None:
        n, s = 2048, self.seed
        self.served = [Served(csr, self.rng) for csr in (
            gen.banded(n, nnz_per_row=9, seed=s),
            gen.random_uniform(n, nnz_per_row=16.0, seed=s + 1),
            gen.fem_like(n, seed=s + 2),
            gen.power_law(n, avg_deg=10.0, seed=s + 3),
        )]
        self.plan_anchor()

    def setup_round(self, spans_on: bool) -> list[tuple[float, float]]:
        opt = self.optimizer(guard=True)
        times = []
        for s in self.served:
            x = s.inputs[False][0][0]
            timing, server = self.cold_setup(opt, s.csr, x, spans_on)
            times.append(timing)
            if s.server is None:
                s.server = server
        return times


class _Structure:
    """One plan-churn structure: fixed pattern, values that change."""

    def __init__(self, csr: CSRMatrix):
        self.rowptr, self.colind = csr.rowptr, csr.colind
        self.shape = csr.shape
        self.csr = csr

    def revalue(self, rng) -> None:
        values = rng.uniform(0.5, 1.5, size=self.colind.size)
        self.csr = CSRMatrix(self.rowptr, self.colind, values, self.shape)


class PlanChurn(Anchored):
    """Each request is one ``optimize()`` plus one checked apply."""

    name = "plan-churn"
    window = 300
    #: distinct structures in the stream; more than the plan cache holds.
    n_structures = 40
    #: kinds per block of 20 requests, shuffled by the seed: a fifth
    #: cold, a fifth new values, the rest exact repeats.
    block = ("cold",) * 4 + ("revalue",) * 4 + ("repeat",) * 12

    def build_inputs(self) -> None:
        sizes = np.geomspace(1024, 65_536, self.n_structures).astype(int)
        families = (
            lambda n, s: gen.banded(n, nnz_per_row=5, seed=s),
            lambda n, s: gen.random_uniform(n, nnz_per_row=6.0, seed=s),
            lambda n, s: gen.fem_like(n, block=2, neighbors=2, seed=s),
            lambda n, s: gen.power_law(n, avg_deg=6.0, seed=s),
        )
        self.structures = [
            _Structure(families[i % len(families)](int(n), self.seed + i))
            for i, n in enumerate(sizes)
        ]
        self.x = self.rng.standard_normal(65_536)
        self.X = self.rng.standard_normal((65_536, MULTI_COLS))
        # Set-up matrices: one per family, spread over the size ladder.
        step = self.n_structures // 4
        self.setup_ids = [i * step + i for i in range(4)]
        self.plan_anchor()
        self.churn = self.optimizer()
        self.maxsize = self.churn.plan_cache.maxsize
        if self.maxsize >= self.n_structures:
            raise ValueError("the stream must hold more structures than "
                             "the plan cache")
        # Mirror of the plan cache's LRU order. Known-structure requests
        # take the least recently used cached structure and cold ones the
        # structure evicted longest ago, so every structure comes round
        # in turn and each window spans the size ladder alike.
        self.cached: OrderedDict[int, None] = OrderedDict()
        self.evicted = deque(self.rng.permutation(self.n_structures).tolist())
        #: Requests drawn per structure so far.
        self.drawn = [0] * self.n_structures

    def setup_round(self, spans_on: bool) -> list[tuple[float, float]]:
        opt = self.optimizer()
        times = []
        for i in self.setup_ids:
            csr = self.structures[i].csr
            timing, _ = self.cold_setup(opt, csr, self.x[:csr.shape[1]],
                                        spans_on, serve=lambda op: op)
            times.append(timing)
        return times

    def warm_up(self) -> None:
        # Fill the plan cache before timing, so the stream's mix holds.
        for _ in range(self.maxsize):
            req = self._churn_request("cold", *self._draw("cold"))
            y = req.call(None, None)
            self.oracle.run(req.label, lambda: req.check(y),
                            lambda req=req: req.check(req.call(None, None)))
        super().warm_up()

    def _draw(self, kind: str) -> tuple[CSRMatrix, bool]:
        """The next structure for a request of ``kind``, as its current
        matrix, and whether the request is an 8-column one."""
        if kind == "cold":
            sid = self.evicted.popleft()
            self.cached[sid] = None
            if len(self.cached) > self.maxsize:
                self.evicted.append(self.cached.popitem(last=False)[0])
        else:
            sid = next(iter(self.cached))
            self.cached.move_to_end(sid)
            if kind == "revalue":
                self.structures[sid].revalue(self.rng)
        # Every structure's every fourth request is 8-column, so the
        # 8-column requests sample each structure as often as the others
        # do: a pick by size left the median to which sizes it drew.
        self.drawn[sid] += 1
        multi = self.drawn[sid] % self.multi_every == 0
        return self.structures[sid].csr, multi

    def _churn_request(self, kind: str, csr: CSRMatrix,
                       multi: bool) -> Request:
        n = csr.shape[1]
        x = self.X[:n] if multi else self.x[:n]
        opt = self.churn
        apply_name = "engine.apply_multi" if multi else "engine.apply"

        def call(spans, parent):
            if spans is None:
                op = opt.optimize(csr)
                return op.matmat(x) if multi else op.matvec(x)
            tracer = Tracer()
            t0 = pc()
            op = opt.optimize(csr, tracer=tracer)
            t1 = pc()
            y = op.matmat(x) if multi else op.matvec(x)
            t2 = pc()
            opt_id = spans.add(f"core.optimize.{kind}", t0, t1, parent)
            spans.add_tracer(tracer, t0, opt_id)
            spans.add(apply_name, t1, t2, parent)
            return y

        # The reference is built at check time: a window holds hundreds of
        # requests, and their SciPy copies would dominate peak RSS.
        return Request(f"{self.name}/{kind}", multi, call,
                       lambda y: Reference(csr).check(y, x))

    def requests(self, n: int) -> list[Request]:
        """``n`` rounded up to whole blocks of 20 (every drawn structure
        must be requested, or the LRU mirror drifts from the plan cache).
        """
        reqs: list[Request] = []
        while len(reqs) < n:
            for i in self.rng.permutation(len(self.block)):
                kind = self.block[i]
                reqs.append(self._churn_request(kind, *self._draw(kind)))
        return reqs


WORKLOADS = {w.name: w for w in (CgSolve, SmallCalls, PlanChurn)}
