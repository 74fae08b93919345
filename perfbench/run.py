"""Benchmark of lpaideals: three seeded closed-loop workloads, one process, one thread.

    python3 perfbench/run.py --workload {lattice,ideals,poly} --seed N \\
        --seconds S --trace {0,1} [--minimal]

A run draws a fixed pool of at least 100 queries from the seed and sends
them one at a time (a closed loop with a single client) in whole passes
over the pool, as many as fit in --seconds and at least one.  Each pass
builds its input objects afresh outside the timed span, so no pass sees
objects that an earlier pass warmed.  Every answer of the first pass is
checked after the timed phase, and later passes must repeat it byte for
byte.

--trace 0 prints the end-to-end metrics.  Every time they use is scaled to
a reference host speed (see speed.py): the untimed host-speed kernel runs
between queries and, from a SIGPROF handler whose own time is taken out,
every 25 ms of CPU time within one; a query's time is multiplied by
REF_KERNEL_S over the mean of the kernel's times just before, during and
just after it.  A query's time is the median over its passes;
query_p50_ms and query_p90_ms are percentiles of those times over the
pool, and queries_per_s is the completed share of the pool over their sum.
setup_s is the median over fresh processes that import lpaideals and build
the pool's input objects, run between the passes, each scaled by the
kernel timed in that process just before and after its set-up.  The
unscaled figures are printed on comment lines.  peak_rss_mb is the
process's peak resident set when the first pass ends.

--trace 1 alternates untraced and traced passes, requires their outputs to
be byte-identical, and prints the per-layer metrics of the traced passes;
their times are not scaled.  --minimal shrinks every pool to a few queries,
for the smoke test.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(HERE)]

import speed  # noqa: E402

QUERY_CAP_S = 10.0  # per-query wall cap; a query running longer counts as failed
PHASE_BUDGET_S = 100.0  # no query starts after this, so a run ends within 180 s
CHECK_CAP_S = 40.0
SETUP_PROBES = 11
MARK_EVERY_S = 0.02  # time the host-speed kernel once this much has passed

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("success_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class WallCap(BaseException):
    """Raised from SIGALRM.  Not an Exception, so cli.run cannot swallow it."""


def _alarm(signum, frame):
    raise WallCap()


class Pass:
    """One pass over the query pool: per-query times, results and failures."""

    def __init__(self, workload, inputs, deadline, tracer=None, calibrate=False):
        self.times, self.results, self.errors = [], [], {}
        self.kernel = []  # per query: host-speed kernel seconds around and in it
        self.inside = []  # per query: kernel samples taken while it ran
        sampler = speed.InQuery() if calibrate else None
        objects = workload.build(inputs)
        queries = workload.queries(objects, inputs)
        self.objects = objects
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        mark = speed.sample() if calibrate else None
        marked_at, pending = time.perf_counter(), 0
        try:
            for i, (label, query) in enumerate(queries):
                self._one(workload, i, label, query, deadline, tracer, sampler)
                pending += 1
                last = i == len(queries) - 1
                if calibrate and (last or time.perf_counter() - marked_at >= MARK_EVERY_S):
                    now = speed.sample()
                    for inside in self.inside[-pending:]:
                        samples = [mark, now, *inside]
                        self.kernel.append(sum(samples) / len(samples))
                    mark, marked_at, pending = now, time.perf_counter(), 0
        finally:
            self.wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.count = len(self.results)
        self.encoded = [None if r is None else workload.encode(r) for r in self.results]

    def release(self):
        """Drop results and objects once compared, so memory does not grow with passes."""
        self.results = self.objects = self.encoded = None

    def scaled(self):
        """Query times at the reference host speed."""
        return [None if t is None else t * speed.REF_KERNEL_S / k
                for t, k in zip(self.times, self.kernel)]

    def _one(self, workload, i, label, query, deadline, tracer, sampler):
        result = None
        if time.perf_counter() > deadline:
            self.errors[i] = (f"{label}: not run, the timed phase passed its "
                              f"{PHASE_BUDGET_S:.0f} s budget")
            self.results.append(None)
            self.times.append(None)
            self.inside.append([])
            return
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)
            if sampler is not None:
                sampler.start()
            result = query()
            signal.setitimer(signal.ITIMER_REAL, 0)
        except WallCap:
            self.errors[i] = f"{label}: exceeded the per-query wall cap of {QUERY_CAP_S:.0f} s"
        except Exception as exc:  # any library error is a counted failure
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.errors[i] = f"{label}: {type(exc).__name__}: {exc}"
        finally:
            if sampler is not None:
                sampler.stop()
        elapsed = time.perf_counter() - start
        if sampler is not None:
            elapsed -= sampler.spent
        self.inside.append(sampler.samples if sampler is not None else [])
        self.times.append(elapsed)
        if result is not None and workload.error(result):
            self.errors[i] = f"{label}: {workload.error(result)}"
            result = None
        if result is None and tracer is not None:
            tracer.reset_stack()
        self.results.append(result)


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _check(workload, inputs, first):
    """Answer checks on the first pass, under their own wall cap."""
    signal.setitimer(signal.ITIMER_REAL, CHECK_CAP_S)
    try:
        failures = workload.check(inputs, first.objects, first.results)
    except WallCap:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return failures


def _mismatches(reference, other, what):
    return {i: f"query {i}: {what} output differs"
            for i, (a, b) in enumerate(zip(reference.encoded, other.encoded))
            if a is not None and b is not None and a != b}


def _probe(name, path):
    """Set-up seconds measured by one fresh process: (raw, scaled)."""
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), name, path],
                          cwd=CHECKOUT, capture_output=True, text=True,
                          timeout=20, check=True)
    raw, kernel = map(float, done.stdout.split())
    return raw, raw * speed.REF_KERNEL_S / kernel


def _verdict(first, checked, failures):
    if not checked:
        return f"answer check: FAIL (the checks passed their {CHECK_CAP_S:.0f} s cap)"
    answered = [i for i, r in enumerate(first.results) if r is not None]
    good = sum(1 for i in answered if i not in failures)
    return (f"answer check: {'PASS' if not failures else 'FAIL'} ({good} of "
            f"{first.count} answers verified, {first.count - len(answered)} unanswered)")


def _report(lines, workload_name, passes, failures, attempted, failed, mode):
    print(f"# workload {workload_name}, {mode}: {len(passes)} passes of "
          f"{passes[0].count} queries")
    for line in lines:
        print(f"# {line}")
    messages = sorted({m for p in passes for m in p.errors.values()}
                      | set(failures.values()))
    for m in messages[:20]:
        print(f"# FAILED {m}")
    print(f"# failed_share {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")


def _another(passes, seconds):
    """Whether one more pass, as long as the mean so far, still ends within seconds."""
    spent = sum(p.wall for p in passes)
    return spent + spent / len(passes) <= seconds


def _failed_count(passes, bad):
    return sum(1 for p in passes for i in range(p.count)
               if i in p.errors or i in bad)


def timed_run(name, workload, inputs, args, workdir):
    inputs_path = os.path.join(workdir, "inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)
    probes = 3 if args.minimal else SETUP_PROBES
    setups = []
    signal.signal(signal.SIGALRM, _alarm)
    deadline = time.perf_counter() + PHASE_BUDGET_S
    first = Pass(workload, inputs, deadline, calibrate=True)
    # peak memory of one pass over the pool; later passes hold two passes'
    # objects at once, and their number depends on the host's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes, mismatched = [first], {}
    while _another(passes, args.seconds) and time.perf_counter() < deadline:
        if len(setups) < probes:  # spread the set-up probes over the run
            setups.append(_probe(name, inputs_path))
        later = Pass(workload, inputs, deadline, calibrate=True)
        mismatched.update(_mismatches(first, later, "a later pass's"))
        later.release()
        passes.append(later)
    while len(setups) < probes:
        setups.append(_probe(name, inputs_path))
    failures = _check(workload, inputs, first)
    checked = failures is not None
    failures = {**(failures or {}), **mismatched}
    attempted = sum(p.count for p in passes)
    failed = _failed_count(passes, failures)
    completed = 1 - _failed_count(passes, {}) / attempted

    def timings(per_pass, setup):
        # each query's median pass: unbiased whatever the number of passes
        typical = [statistics.median(t for t in ts if t is not None)
                   for ts in zip(*per_pass) if any(t is not None for t in ts)]
        return typical, {
            "queries_per_s": completed * len(typical) / sum(typical),
            "query_p50_ms": 1000 * _percentile(typical, 0.5),
            "query_p90_ms": 1000 * _percentile(typical, 0.9),
            "setup_s": statistics.median(setup),
        }

    typical, metrics = timings([p.scaled() for p in passes], [s for _, s in setups])
    _, raw = timings([p.times for p in passes], [r for r, _ in setups])
    metrics["success_share"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = peak_rss_mb
    above = sum(1 for t in typical if 1000 * t > metrics["query_p90_ms"])
    lines = [f"{key} {metrics[key]:.6g} {unit}" for key, unit in END_TO_END]
    lines.append("unscaled: " + ", ".join(f"{key} {value:.6g}" for key, value in raw.items()))
    kernels = [k for p in passes for k in p.kernel]
    lines.append(f"host-speed kernel {1000 * statistics.median(kernels):.4g} ms median, "
                 f"{1000 * min(kernels):.4g}-{1000 * max(kernels):.4g} ms range, over "
                 f"{len(kernels)} queries; reference {1000 * speed.REF_KERNEL_S:.4g} ms")
    lines.append(f"latency samples {len(typical)} queries (each the median of its "
                 f"{len(passes)} passes), {above} above p90; timed phase "
                 f"{sum(p.wall for p in passes):.2f} s; set-up median of {probes} "
                 f"fresh processes")
    lines.append(_verdict(first, checked, failures))
    _report(lines, name, passes, failures, attempted, failed, "untraced")
    return {"correct": checked and not failures, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END}}


# a nested call that only wrappers bound in every namespace can see
NESTED = {
    "lattice": ("is_hereditary calls under enumerate_hereditary_saturated spans",
                lambda t: t.subsets_scanned),
    "ideals": ("poly.factor calls under ideals.factor_prime_powers spans",
               lambda t: t.factor_under_fpp),
    "poly": ("poly.factor calls under ideals.factor_prime_powers spans",
             lambda t: t.factor_under_fpp),
}


def traced_run(name, workload, inputs, args, workdir):
    from tracing import Tracer, per_layer_metrics

    tracer = Tracer()
    signal.signal(signal.SIGALRM, _alarm)
    deadline = time.perf_counter() + PHASE_BUDGET_S
    plain, traced, differs, mismatched = [], [], {}, {}
    while not traced or _another(plain + traced, args.seconds):
        p = Pass(workload, inputs, deadline)
        t = Pass(workload, inputs, deadline, tracer)
        differs.update(_mismatches(p, t, "traced"))
        if plain:
            mismatched.update(_mismatches(plain[0], p, "a later pass's"))
            p.release()
        t.release()
        plain.append(p)
        traced.append(t)
        if time.perf_counter() > deadline:
            break
    failures = _check(workload, inputs, plain[0])
    checked = failures is not None
    failures = {**(failures or {}), **mismatched, **differs}
    what, count = NESTED[name]
    nested = count(tracer)
    untraced_wall = sum(p.wall for p in plain)
    traced_wall = sum(p.wall for p in traced)
    values = tracer.metrics(len(traced), traced_wall / untraced_wall)
    passes = plain + traced
    attempted = sum(p.count for p in passes)
    failed = _failed_count(passes, failures)
    lines = [f"{key} {values[key]:.6g} {unit}" for key, unit in per_layer_metrics()]
    lines.append(f"tracing overhead {values['trace.overhead']:.4f} = traced wall "
                 f"{traced_wall:.3f} s / untraced wall {untraced_wall:.3f} s")
    lines.append(f"traced outputs byte-identical to untraced: {not differs}")
    lines.append(f"nested-call check: {nested:.0f} {what}: {'PASS' if nested else 'FAIL'}")
    lines.append(_verdict(plain[0], checked, failures))
    _report(lines, name, passes, failures, attempted, failed, "traced")
    return {"correct": checked and not failures and bool(nested),
            "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": values[key], "unit": unit}
                        for key, unit in per_layer_metrics()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("lattice", "ideals", "poly"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimal", action="store_true",
                        help="a few queries per pool, for the smoke test")
    args = parser.parse_args(argv)
    try:
        import lpaideals
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the library under test: {exc}", file=sys.stderr)
        return 2
    if CHECKOUT / "src" not in pathlib.Path(lpaideals.__file__).resolve().parents:
        print(f"error: lpaideals was imported from {lpaideals.__file__}, "
              f"not from this checkout's src/", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = CHECKOUT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        inputs = workload.generate(args.seed, args.minimal, workdir)
        # the generator's leftovers are not the program's: keep them out of
        # the collections that the timed queries trigger
        gc.collect()
        gc.freeze()
        run = traced_run if args.trace else timed_run
        result = run(args.workload, workload, inputs, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
