#!/usr/bin/env python3
"""numerkit benchmark: three workloads behind one command.

    python3 benchmark/run.py --workload quote_stream --seed 3 --seconds 20 --trace 0

Workloads (README.md says why each exists and what it should move):

  verify_defaults  ``numerkit verify`` at its defaults, output to a file
  quote_stream     a seeded stream of single-product requests, closed loop,
                   one client: product_from_dict, validate, then analytic,
                   quadrature and pde_reduced at the default grid
  mc_paths         price_mc on the five default products, seeds from --seed

A workload repeats whole passes of its operations until --seconds have
passed, then checks every output against ``reference.py``.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json, or with --trace 1 its
per-layer metrics.
"""

import os

# One BLAS thread, set before numpy loads; nothing else in a run starts threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import namedtuple
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

try:
    import numerkit
    from numerkit import cli, model, montecarlo, pde, verify
    from numerkit.errors import PricingError
except ImportError as exc:
    sys.stderr.write(f"cannot import numerkit from {SRC}: {exc}\n")
    sys.exit(2)
if Path(numerkit.__file__).resolve().parent != SRC / "numerkit":
    sys.stderr.write(f"numerkit imported from {numerkit.__file__}, not {SRC}\n")
    sys.exit(2)

import reference
import tracing

REL_TOL = 1e-3            # deterministic routes against the reference
MC_FAIL_PROB = 1e-3       # chance that a correct sampler fails a whole run
SETUP_PROBES = 3          # fresh interpreters timed for setup_s
MB = 2.0 ** 20

QUOTE_METHODS = ("analytic", "quadrature", "pde_reduced")
SEEDED_PER_KIND = 4       # seeded requests of each product type per round
ROUNDS_PER_PASS = 10      # one pass: 10 rounds of 21 requests
EXACT_PATHS = 1_000_000
RATE_PATHS = 24_576       # three 8192-path blocks of the Vasicek walk

DEFAULT_SUITE = [
    {"type": "esop", "beta": 0.85, "t_reset": 0.5, "maturity": 1.0,
     "sigma": 0.2, "rate": 0.05, "spot": 100.0},
    {"type": "fx_strike", "sigma_s": 0.2, "sigma_x": 0.1, "rho": 0.3,
     "r_d": 0.05, "r_p": 0.03, "spot": 100.0, "fx": 1.3, "maturity": 1.0},
    {"type": "savings", "sigma_x": 0.1, "sigma_i": 0.05, "rho": 0.2,
     "r_d": 0.04, "r_f": 0.02, "fx": 0.25, "price_level": 1.0,
     "maturity": 1.0},
    {"type": "convertible", "sigma_s": 0.25, "rho": 0.2, "conv_date": 1.0,
     "bond_maturity": 2.0, "spot": 1.0,
     "vasicek": {"theta": 0.5, "mu_r": 0.05, "sigma_r": 0.01, "lambda": 0.0,
                 "r0": 0.03}},
    {"type": "corporate", "shares": 1_000_000, "bonds": 10_000,
     "conv_rate": 2.0, "face": 1.0, "sigma_v": 0.3, "rho": -0.1,
     "maturity": 1.0, "firm_value": 500_000.0,
     "vasicek": {"theta": 0.3, "mu_r": 0.04, "sigma_r": 0.01, "lambda": 0.0,
                 "r0": 0.03}},
]
KINDS = [p["type"] for p in DEFAULT_SUITE]


def _low_vol(p: dict) -> dict:
    """The same product with every volatility at 1e-9 (rate vol at 0)."""
    q = json.loads(json.dumps(p))
    for key in ("sigma", "sigma_s", "sigma_x", "sigma_i", "sigma_v"):
        if key in q:
            q[key] = 1e-9
    if "vasicek" in q:
        q["vasicek"]["sigma_r"] = 0.0
    return q


# Zero-volatility limits: quadrature_price rejects their reduced variance
# (an absolute det <= 1e-14 test) while every other route prices them, so
# each fails its quadrature quote on every run.  They never depend on --seed.
LOW_VOL = [_low_vol(p) for p in DEFAULT_SUITE]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# one timed operation and what it returned
Op = namedtuple("Op", "latency failed data")


# ---------------------------------------------------------------------------
# inputs


def _vasicek(rng: random.Random) -> dict:
    return {"theta": rng.uniform(0.2, 1.0), "mu_r": rng.uniform(0.02, 0.07),
            "sigma_r": rng.uniform(0.005, 0.02),
            "lambda": rng.uniform(-0.1, 0.1), "r0": rng.uniform(0.01, 0.06)}


def draw_product(rng: random.Random, kind: str) -> dict:
    """One product of ``kind`` with parameters drawn around the default suite."""
    u = rng.uniform
    if kind == "esop":
        maturity = u(0.5, 2.0)
        return {"type": kind, "beta": u(0.5, 1.0),
                "t_reset": maturity * u(0.25, 0.75), "maturity": maturity,
                "sigma": u(0.1, 0.4), "rate": u(0.0, 0.08),
                "spot": u(50.0, 150.0)}
    if kind == "fx_strike":
        return {"type": kind, "sigma_s": u(0.1, 0.35), "sigma_x": u(0.05, 0.2),
                "rho": u(-0.5, 0.6), "r_d": u(0.0, 0.08), "r_p": u(0.0, 0.08),
                "spot": u(50.0, 150.0), "fx": u(0.8, 1.8),
                "maturity": u(0.5, 2.0)}
    if kind == "savings":
        return {"type": kind, "sigma_x": u(0.05, 0.2), "sigma_i": u(0.02, 0.1),
                "rho": u(-0.4, 0.6), "r_d": u(0.0, 0.06), "r_f": u(0.0, 0.06),
                "fx": u(0.1, 1.0), "price_level": u(0.8, 1.25),
                "maturity": u(0.5, 2.0)}
    if kind == "convertible":
        conv = u(0.5, 1.5)
        return {"type": kind, "sigma_s": u(0.15, 0.4), "rho": u(-0.4, 0.4),
                "conv_date": conv, "bond_maturity": conv + u(0.5, 1.5),
                "spot": u(0.7, 1.4), "vasicek": _vasicek(rng)}
    if kind == "corporate":
        return {"type": kind, "shares": 1_000_000,
                "bonds": rng.randint(5_000, 20_000), "conv_rate": u(1.0, 3.0),
                "face": 1.0, "sigma_v": u(0.2, 0.4), "rho": u(-0.4, 0.4),
                "maturity": u(0.5, 2.0), "firm_value": u(350_000.0, 700_000.0),
                "vasicek": _vasicek(rng)}
    raise ValueError(kind)


def quote_stream_requests(seed: int) -> list:
    """One pass: rounds of 4 seeded requests per type plus one low-vol request."""
    rng = random.Random(seed)
    requests = []
    for r in range(ROUNDS_PER_PASS):
        batch = [draw_product(rng, kind) for kind in KINDS
                 for _ in range(SEEDED_PER_KIND)]
        batch.append(LOW_VOL[r % len(LOW_VOL)])
        rng.shuffle(batch)
        requests.extend(batch)
    return requests


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set up in ``__init__``; ``ops`` yields the calls of one pass."""

    op_name = "op"

    def failed(self, data) -> bool:
        return False


class VerifyDefaults(Workload):
    """``numerkit verify`` at its defaults on the five default products."""

    op_name = "verify"

    def __init__(self, seed: int):
        OUT.mkdir(exist_ok=True)
        self.files = []
        warm = OUT / f"warmup-{os.getpid()}.json"
        cli.main(["verify", "--grid-nodes", "16", "--time-steps", "8",
                  "--paths", "256", "--output", str(warm)])
        warm.unlink()

    def ops(self):
        path = OUT / f"verify-{os.getpid()}-{len(self.files)}.json"
        self.files.append(path)
        yield lambda: cli.main(["verify", "--output", str(path)])

    def checks(self, ops: list):
        """([(what, ok)], [(label, estimate, std_error, reference)])."""
        det, mc = [], []
        for op, path in zip(ops, self.files):
            suite = json.loads(path.read_text())
            path.unlink()
            config = [suite["config"][k] for k in
                      ("grid_nodes", "time_steps", "paths", "tol")]
            det += [(f"exit code {op.data}", op.data == 0),
                    ("all_passed", suite["all_passed"] is True),
                    (f"config {config}", config == [400, 200, 100_000, 1e-3]),
                    ("five reports", len(suite["reports"]) == len(DEFAULT_SUITE))]
            for rep in suite["reports"]:
                ref = reference.price(rep["product"])
                for method, q in rep["quotes"].items():
                    if method == "monte_carlo":
                        mc.append((rep["label"], q["value"], q["std_error"], ref))
                    else:
                        det.append(_rel_check(f"{rep['label']} {method}",
                                              q["value"], ref))
        return det, mc


class QuoteStream(Workload):
    """A seeded stream of single-product requests, closed loop, one client."""

    op_name = "request"

    def __init__(self, seed: int):
        self.requests = quote_stream_requests(seed)
        for p in DEFAULT_SUITE:
            product = model.product_from_dict(p)
            model.validate(product)
            for m in QUOTE_METHODS:
                verify.price_with_method(product, m, grid=pde.GridSpec(16, 8))

    def ops(self):
        for request in self.requests:
            yield lambda r=request: self.quote(r)

    @staticmethod
    def quote(request: dict) -> dict:
        product = model.product_from_dict(request)
        violations = model.validate(product)
        if violations:
            raise ValueError(f"benchmark drew an invalid request: {violations}")
        values = {}
        for m in QUOTE_METHODS:
            try:
                values[m] = verify.price_with_method(product, m).value
            except PricingError as exc:
                values[m] = exc
        return values

    def failed(self, data) -> bool:
        return any(isinstance(v, Exception) for v in data.values())

    def checks(self, ops: list):
        det = []
        n = len(self.requests)
        for i, op in enumerate(ops):
            request = self.requests[i % n]
            ref = reference.price(request)
            for m, v in op.data.items():
                if not isinstance(v, Exception):
                    det.append(_rel_check(f"request {i % n} {m}", v, ref))
        return det, []


class McPaths(Workload):
    """price_mc on the five default products, one seed of a seeded list per pass."""

    op_name = "price_mc"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2 ** 32) for _ in range(10_000)]
        self.products = [model.product_from_dict(p) for p in DEFAULT_SUITE]
        self.paths = [RATE_PATHS if p["type"] in ("convertible", "corporate")
                      else EXACT_PATHS for p in DEFAULT_SUITE]
        self.runs = []
        for product in self.products:
            montecarlo.price_mc(product, montecarlo.McSpec(paths=256, seed=0))

    def ops(self):
        mc_seed = self.seeds[len(self.runs) // len(self.products)]
        for i, product in enumerate(self.products):
            spec = montecarlo.McSpec(paths=self.paths[i], seed=mc_seed)
            self.runs.append(i)
            yield lambda p=product, s=spec: montecarlo.price_mc(p, s)

    def checks(self, ops: list):
        mc = []
        for i, op in zip(self.runs, ops):
            p = DEFAULT_SUITE[i]
            mc.append((p["type"], op.data.estimate, op.data.std_error,
                       reference.price(p)))
        return [], mc


WORKLOADS = {"verify_defaults": VerifyDefaults, "quote_stream": QuoteStream,
             "mc_paths": McPaths}


# ---------------------------------------------------------------------------
# checks and figures


def _rel_check(what: str, value: float, ref: float):
    return (f"{what}: {value!r} against reference {ref!r}",
            abs(value - ref) <= REL_TOL * abs(ref))


def z_limit(estimates: int) -> float:
    """|z| bound for which all ``estimates`` pass with prob. 1 - MC_FAIL_PROB."""
    return statistics.NormalDist().inv_cdf(1.0 - MC_FAIL_PROB / (2.0 * estimates))


def problems(det: list, mc: list) -> list:
    out = [what for what, ok in det if not ok]
    if mc:
        limit = z_limit(len(mc))
        for label, est, err, ref in mc:
            z = abs(est - ref) / err if err > 0.0 else float("inf")
            if not z <= limit:
                out.append(f"{label} Monte Carlo {est!r} is {z:.2f} standard "
                           f"errors from reference {ref!r} (limit {limit:.2f})")
    return out


def percentile(values: list, q: float) -> float:
    """Linear interpolation between order statistics at q (0..1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    if lo == pos:
        return ordered[lo]
    return ordered[lo] + (pos - lo) * (ordered[lo + 1] - ordered[lo])


def timed_section(workload, seconds: float, tracer=None):
    """Whole passes until ``seconds`` have passed; returns (pass times, ops)."""
    passes, ops = [], []
    start = now()
    while True:
        t_pass = now()
        for call in workload.ops():
            ctx = tracer.span(workload.op_name, len(ops)) if tracer else nullcontext()
            with ctx:
                t0 = now()
                data = call()
                latency = now() - t0
            ops.append(Op(latency, workload.failed(data), data))
        passes.append(now() - t_pass)
        if now() - start >= seconds:
            return passes, ops


def setup_probe_times(argv: list) -> list:
    """Process start to first timed call, in fresh interpreters doing this setup."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = now()
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               *argv, "--setup-probe"], capture_output=True,
                              text=True, timeout=150, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def peak_alloc_solve_2d() -> float:
    """tracemalloc peak (MB) of one default-grid 2-D solve of the esop."""
    product = model.product_from_dict(DEFAULT_SUITE[0])
    spec = verify.build_engines(product)[0].pde2
    tracemalloc.start()
    try:
        pde.solve_2d(spec, pde.GridSpec())
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the clock and exit (times setup_s)")
    raw = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(raw)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(repr(now()))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_times = setup_probe_times(
            [a for a in raw if a != "--setup-probe"])
    try:
        passes, ops = timed_section(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    faults = problems(*workload.checks(ops))
    for line in faults[:20]:
        sys.stderr.write(line + "\n")

    if tracer:
        figures = tracing.layer_metrics(tracer.spans)
        figures["trace.wall_s"] = statistics.median(passes)
        figures["trace.uncovered_s"] = (
            sum(passes) - tracing.covered_time(tracer.spans)) / len(passes)
        figures["pde.solve_2d.peak_alloc_mb"] = (
            peak_alloc_solve_2d() if figures["pde.solve_2d.calls"] else 0.0)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        wanted = bench["per_layer"]
    else:
        latencies = [float("inf") if op.failed else op.latency * 1e3 for op in ops]
        figures = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(passes),
            "peak_rss_mb": peak_rss,
            "op_p50_ms": percentile(latencies, 0.5),
            "op_p90_ms": percentile(latencies, 0.9),
        }
        wanted = bench["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(figures):
        sys.stderr.write(f"metric names differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(figures))}\n")
        return 2
    print(json.dumps({
        "correct": not faults,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
