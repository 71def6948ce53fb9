"""Benchmark of mukailat: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 35 \
        --trace 0

Run from a checkout that holds the package sources under src/.  The seed
drives the benchmark's own input generators (perfbench/inputs.py); the
package receives only the generated inputs.  The next call starts when the
previous one has returned, and no threads are used.  Every answer is
checked independently (perfbench/oracle.py); a wrong answer or an
unexpected exception ends the run with exit code 1.  A `NotFound` from a
bounded search counts as a failed operation.

With --trace 0 the run measures the end-to-end metrics for --seconds
seconds.  With --trace 1 it runs a fixed number of operations untraced, then
the same operations traced, and reports per-layer metrics and the tracing
overhead; spans are written to perfbench/out/.  The last line of standard
output is the result as one JSON object; the line before it carries the
sample counts, the output fingerprint and the environment.
"""

import argparse
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from perfbench import inputs, oracle, stats, tracer as tracing  # noqa: E402

# p90 and the mean of solve-small spread 14-29% across seeds: how many of a
# run's solves escalate the companion search to a larger radius decides
# both.  p75 stays steady and keeps ten samples beyond it on every workload.
TAIL_PERCENT = 75
SETUP_REPEATS = 5
REF_INTERVAL_S = 0.25
# reference_work() time on an idle 2-core x86-64 virtual machine; set-up
# times are scaled to that speed so that they can be compared across runs
NOMINAL_REF_S = 0.007
# the nine suite checks; lemsimo-pipeline repeats the solve-small inputs
VERIFY_CHECKS = ("index-formula", "character-table", "involution-identity",
                 "fm-orientation", "elliptic-constraints",
                 "propdual-certificate", "nikulin-suite", "similitude",
                 "vperp-structure")
# every sampled count of the default suite divided by 10, so that a run
# holds enough passes for its tail percentile
VERIFY_SAMPLES = dict(char_samples=100, word_samples=20, beta_samples=5,
                      nikulin_samples=20, similitude_samples=10)


def import_package():
    """Import mukailat from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mukailat", "__init__.py")):
        sys.exit("perfbench: no package sources at src/mukailat; run from a "
                 "checkout of the repository")
    sys.path.insert(0, SRC)
    import mukailat
    import mukailat.cli
    import mukailat.verify
    if not os.path.abspath(mukailat.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported mukailat from outside src/")
    return mukailat


class SolveSmall:
    """LemsimoProblem(k, xi1, xi2, bound=10): k cycling through 3, 4, 5,
    coordinates at most 6, spans with |det S| < 256."""
    op = "solve"
    pool_size = 1000
    fingerprint_ops = 20
    trace_ops = 40
    warmup = (3, (1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0))

    def __init__(self, pkg):
        self.pkg = pkg
        self.failures = (pkg.discriminant.NotFound,)

    def pool(self, seed, count):
        return inputs.solve_problems(seed, count)

    def prepare(self, item):
        k, xi1, xi2 = item
        return self.pkg.lemsimo.LemsimoProblem(k, xi1, xi2, bound=10)

    def call(self, problem):
        return self.pkg.lemsimo.solve(problem)

    def check(self, item, solution):
        oracle.check_solution(*item, solution.g.matrix)
        return repr(solution.g.matrix).encode()


class CertifyWords:
    """certify on words of surface lifts and propdual blocks that fix
    v = m(1, 0, -k)."""
    op = "certify"
    pool_size = 6000
    fingerprint_ops = 200
    trace_ops = 800
    warmup = (1, 3, inputs.propdual_block(1))

    def __init__(self, pkg):
        self.pkg = pkg
        self.failures = ()
        self.model = pkg.mukai.MukaiModel(inputs.T)

    def pool(self, seed, count):
        return inputs.certify_words(seed, count)

    def prepare(self, item):
        m, k, tokens = item
        mono = self.pkg.monodromy
        make = {"surface_lift": lambda t: mono.surface_lift(t[1]),
                "tensor": lambda t: mono.tensor_l(t[1]),
                "poincare_dual": lambda t: mono.poincare_dual(),
                "inverse_poincare": lambda t: mono.inverse(mono.poincare())}
        triple = self.pkg.mukai.MkTriple(m, k, inputs.T)
        return mono.GroupoidWord(triple,
                                 tuple(make[t[0]](t) for t in tokens))

    def call(self, word):
        return self.pkg.monodromy.certify(word)

    def check(self, item, cert):
        oracle.check_certificate(cert, oracle.expected_certificate(*item))
        mukai = self.pkg.mukai
        try:
            hodge = mukai.hodge_ori(self.model, cert.composite)
        except mukai.DecisionDegenerate:
            pass  # the cone test cannot decide this word
        else:
            if hodge != cert.ori:
                raise oracle.WrongAnswer("certify: hodge_ori disagrees")
        return json.dumps(cert.to_json(), sort_keys=True).encode()


class VerifySuite:
    """run_suite over the nine checks other than lemsimo-pipeline, at 1/10
    of the default sample counts, one fresh seed per pass."""
    op = "verify"
    pool_size = 500
    fingerprint_ops = 5
    trace_ops = 14
    warmup = 0

    def __init__(self, pkg):
        self.pkg = pkg
        self.failures = ()

    def pool(self, seed, count):
        return inputs.verify_seeds(seed, count)

    def prepare(self, seed):
        return self.pkg.verify.VerifyConfig(seed=seed, **VERIFY_SAMPLES)

    def call(self, cfg):
        return self.pkg.verify.run_suite(cfg, names=VERIFY_CHECKS)

    def check(self, seed, report):
        got = sorted((c["name"], c["status"]) for c in report["checks"])
        if got != sorted((name, "pass") for name in VERIFY_CHECKS):
            raise oracle.WrongAnswer("verify: %r" % (report["checks"],))
        return json.dumps(report, sort_keys=True).encode()


WORKLOADS = {"solve-small": SolveSmall, "certify-words": CertifyWords,
             "verify-suite": VerifySuite}


class Runner:
    """Closed loop over a workload's inputs, checking every answer."""

    def __init__(self, workload):
        self.wl = workload
        self.latencies = []
        self.midpoints = []
        self.ref_mid = []
        self.ref_dur = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.fingerprint = hashlib.sha256()
        self.fingerprinted = 0

    def run(self, items, deadline=None, limit=None, tracer=None, wl=None):
        """Run items of workload `wl` (default: the runner's own) until the
        deadline or the limit; stop at the first wrong answer."""
        wl = wl or self.wl
        for item in itertools.islice(items, limit):
            if deadline is not None and perf_counter() >= deadline:
                break
            if not self.ref_mid or \
                    perf_counter() - self.ref_mid[-1] >= REF_INTERVAL_S:
                self.time_reference()
            arg = wl.prepare(item)
            self.attempted += 1
            sid = tracer.open(tracer.name_id("bench." + wl.op)) \
                if tracer else None
            t0 = perf_counter()
            try:
                out = wl.call(arg)
            except wl.failures:
                out = None
            except Exception:
                traceback.print_exc()
                self.correct = False
                return
            finally:
                elapsed = perf_counter() - t0
                if sid is not None:
                    tracer.close(sid)
            self.latencies.append(elapsed)
            self.midpoints.append(t0 + elapsed / 2)
            if out is None:
                self.failed += 1
            elif not self.check(wl, item, out, tracer):
                return

    def time_reference(self):
        t0 = perf_counter()
        stats.reference_work()
        elapsed = perf_counter() - t0
        self.ref_mid.append(t0 + elapsed / 2)
        self.ref_dur.append(elapsed)

    def relative(self):
        """Latencies in units of the reference time around them."""
        self.time_reference()
        return stats.relative_latencies(self.midpoints, self.latencies,
                                        self.ref_mid, self.ref_dur).tolist()

    def check(self, wl, item, out, tracer):
        if tracer:
            tracer.enabled = False
        try:
            digest = wl.check(item, out)
        except oracle.WrongAnswer as exc:
            print("perfbench: wrong answer: %s for input %r" % (exc, item),
                  file=sys.stderr)
            self.correct = False
            return False
        finally:
            if tracer:
                tracer.enabled = True
        if wl is self.wl and self.fingerprinted < wl.fingerprint_ops:
            self.fingerprint.update(digest)
            self.fingerprinted += 1
        return True


def measure_setup(workload):
    """Median over fresh interpreters of the time to import mukailat and
    make one warm-up call of the workload, in seconds at the nominal
    reference speed: each probe is divided by the reference time measured
    right after it in the same interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             workload], capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("perfbench: set-up probe failed")
        setup, ref = map(float, proc.stdout.split()[-2:])
        times.append(setup / ref * NOMINAL_REF_S)
    return statistics.median(times)


def setup_probe(workload):
    t0 = perf_counter()
    pkg = import_package()
    wl = WORKLOADS[workload](pkg)
    wl.call(wl.prepare(wl.warmup))
    setup = perf_counter() - t0
    refs = []
    for _ in range(3):
        t0 = perf_counter()
        stats.reference_work()
        refs.append(perf_counter() - t0)
    print(setup, statistics.median(refs))


def environment(pkg):
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "mukailat", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "kernels_backend": pkg.kernels.backend_name(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "src_lines": src_lines}


def end_to_end(args, pkg, wl):
    setup_s = measure_setup(args.workload)
    runner = Runner(wl)
    pool = wl.pool(args.seed, wl.pool_size)
    wl.call(wl.prepare(wl.warmup))
    runner.run(itertools.cycle(pool), deadline=perf_counter() + args.seconds)
    if not runner.latencies:
        runner.correct = False
        return runner, {}, {"ops": 0}
    lat, rel = runner.latencies, runner.relative()
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "p50_rel": (statistics.median(rel), "ref"),
        "p75_rel": (stats.percentile(rel, TAIL_PERCENT), "ref"),
    }
    info = {"ops": len(lat),
            "samples_beyond_p75": stats.samples_beyond(len(lat),
                                                       TAIL_PERCENT),
            "p50_ms": statistics.median(lat) * 1000.0,
            "p75_ms": stats.percentile(lat, TAIL_PERCENT) * 1000.0,
            "ops_per_s": len(lat) / sum(lat),
            "reference_ms": statistics.median(runner.ref_dur) * 1000.0}
    return runner, metrics, info


def traced(args, pkg, wl):
    """Untraced pass over the first trace_ops inputs, the same inputs
    traced, then one traced probe of each other workload's operation so
    that every layer figure is measured on every workload."""
    deadline = perf_counter() + args.seconds
    runner = Runner(wl)
    pool = wl.pool(args.seed, wl.trace_ops)
    wl.call(wl.prepare(wl.warmup))
    runner.run(pool, deadline=perf_counter() + 0.45 * args.seconds)
    done = runner.attempted
    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    tracer.enabled = True
    runner.run(pool, limit=done, tracer=tracer)
    for name, cls in WORKLOADS.items():
        if name != args.workload and runner.correct:
            other = cls(pkg)
            runner.run(other.pool(args.seed, 1), deadline=deadline,
                       tracer=tracer, wl=other)
    tracer.enabled = False
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, "spans-%s-seed%d.npz"
                             % (args.workload, args.seed)))
    rel = runner.relative()
    overhead = (sum(rel[done:2 * done]) / sum(rel[:done]) - 1.0
                if runner.correct and done else 0.0)
    values = tracing.layer_metrics(tracer, VERIFY_CHECKS, overhead)
    units = {name: unit for name, unit, _ in
             tracing.per_layer_specs(VERIFY_CHECKS)}
    metrics = {name: (values[name], units[name]) for name in units}
    info = {"ops": done, "spans": len(tracer.start)}
    return runner, metrics, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD",
                    choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    pkg = import_package()
    wl = WORKLOADS[args.workload](pkg)
    run = traced if args.trace else end_to_end
    runner, metrics, info = run(args, pkg, wl)
    info.update(workload=args.workload, seed=args.seed,
                fingerprint=runner.fingerprint.hexdigest(),
                fingerprint_ops=runner.fingerprinted,
                environment=environment(pkg))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if runner.correct else 1


if __name__ == "__main__":
    sys.exit(main())
