"""Benchmark the four specshift CLI commands end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src/` directory.  One run is a closed loop: a single client in this process
executes the workload (one or more CLI invocations through `cli.main`), and
each execution starts when the previous one ends, until `--seconds` have
passed (at least three executions).  An untimed warm-up runs first.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json.
`--trace 1` alternates traced and untraced executions and reports the
per-layer metrics from the traced ones (see spans.py), including the tracing
overhead; spans are written to `.perfbench/spans-<workload>.npz`.

Human-readable lines come first; the last line of standard output is the
JSON result.  Every invocation's outputs are checked (workloads.py); a failed
check counts as a failed operation.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_EXECUTIONS = 3
SETUP_SAMPLES = 8
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: what a fresh CLI process pays before any work: interpreter-side import of
#: the CLI module (and numpy behind it) plus reading the config
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import json, sys
import specshift.cli
with open(sys.argv[1], encoding="utf-8") as fh:
    json.load(fh)
print(repr(time.perf_counter() - t0))
"""


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=None,
                   help="benchmark seed; the configs' seeds derive from it")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_facts() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def context(args, workload) -> dict:
    import numpy

    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), **_source_facts(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "SPECSHIFT_THREADS": os.environ.get("SPECSHIFT_THREADS"),
        **{v: os.environ.get(v) for v in BLAS_VARS},
        "loadavg_before": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# executions
# ---------------------------------------------------------------------------

class Runner:
    """Runs one workload's invocations and checks every output."""

    def __init__(self, workload, work: Path):
        import specshift.cli
        import workloads

        self.cli = specshift.cli
        self.wl = workloads
        self.workload = workload
        self.work = work
        self.reference = {}  # config path -> expected integer outcome
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.values = []

    def invocations(self, configs, tag: str) -> list:
        out = []
        for i, cfg in enumerate(configs):
            output = self.work / f"{tag}{i}.csv"
            path = self.work / f"{tag}{i}.json"
            path.write_text(json.dumps({**cfg, "output": str(output)}), encoding="utf-8")
            out.append((cfg, str(path), str(output)))
        return out

    def execute(self, invocations) -> float:
        """Time one execution, then check its outputs outside the timing."""
        wall, codes = self.run(invocations)
        self.check(invocations, codes)
        return wall

    def run(self, invocations) -> tuple:
        """Invoke the CLI once per config; returns (wall seconds, exit codes)."""
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            codes = [self.cli.main([cfg["experiment"], path]) for cfg, path, _ in invocations]
            wall = time.perf_counter() - t0
        if any(codes):
            self.problems.append("stderr: " + sink.getvalue().strip()[-500:])
        return wall, codes

    def check(self, invocations, codes) -> None:
        """Count each invocation as attempted, and as failed if any check
        on its outputs finds a problem."""
        values = []
        for (cfg, path, output), code in zip(invocations, codes):
            problems, vals, outcome = self.wl.check_invocation(cfg, output, code)
            values.extend(vals)
            if not problems:
                digest = self.wl.report_digest(output)
                if self.digests.setdefault(path, digest) != digest:
                    problems.append("report differs from an earlier execution")
            if not problems and path in self.reference:
                expected = self.reference[path]
                if expected != outcome:
                    problems.append(f"outcome {outcome} != reference {expected}")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{os.path.basename(path)}: {'; '.join(problems)}")
        self.values = values


def closed_loop(seconds: float, run_one) -> None:
    """Call run_one(i) until the next call is predicted to end after
    `seconds`, with at least MIN_EXECUTIONS calls; run_one returns its wall."""
    walls = []
    t0 = time.perf_counter()
    while len(walls) < MIN_EXECUTIONS or (
            time.perf_counter() - t0 + statistics.median(walls) <= seconds):
        walls.append(run_one(len(walls)))


class SetupTimer:
    """Launches fresh interpreters that import the CLI and read a config.

    Samples are spread over the run (see `end_to_end`) so that their median,
    like that of the executions, covers the whole measuring window."""

    def __init__(self, config_path: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.config_path = config_path
        self.samples = []
        self.launch()  # the first launch also compiles bytecode; it is not kept
        self.samples.clear()

    def launch(self) -> None:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, self.config_path],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=60, check=True)
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))


def summary(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, runner, main_inv) -> tuple:
    timer = SetupTimer(main_inv[0][1])
    walls = []
    t0 = time.perf_counter()

    def run_one(_):
        walls.append(runner.execute(main_inv))
        while (len(timer.samples) < SETUP_SAMPLES and time.perf_counter() - t0
               >= len(timer.samples) * args.seconds / SETUP_SAMPLES):
            timer.launch()
        return walls[-1]

    closed_loop(args.seconds, run_one)
    while len(timer.samples) < SETUP_SAMPLES:
        timer.launch()
    setup = timer.samples
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bound_mean": statistics.fmean(runner.values) if runner.values else 0.0,
    }
    print(f"wall_s       {summary(walls)}  (s per execution)")
    print(f"setup_s      {summary(setup)}  (s, fresh interpreter)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:.6g}  (MB)")
    print(f"error_rate   {runner.failed / runner.attempted:.6g}  "
          f"({runner.failed} failed / {runner.attempted} invocations)")
    print(f"bound_mean   {metrics['bound_mean']:.17g}  (ratio)")
    return metrics, True


def traced(args, runner, main_inv) -> tuple:
    import spans

    tracer = spans.Tracer()
    per_exec, bounds, walls_traced, walls_plain = [], [], [], []

    def run_one(i):
        if i % 2:
            walls_plain.append(runner.execute(main_inv))
            return walls_plain[-1]
        lo, before = len(tracer), dict(tracer.counts)
        with spans.instrument(tracer):
            wall = runner.execute(main_inv)
        walls_traced.append(wall)
        counts = {k: v - before[k] for k, v in tracer.counts.items()}
        bounds.append((lo, len(tracer)))
        per_exec.append(spans.layer_metrics(tracer, lo, len(tracer), counts))
        return wall

    closed_loop(args.seconds, run_one)
    OUT.mkdir(exist_ok=True)
    tracer.save(str(OUT / f"spans-{args.workload}.npz"), bounds)

    count_keys = sorted(k for k, v in per_exec[0].items() if isinstance(v, int))
    counts = {k: per_exec[0][k] for k in count_keys}
    repeat = all({k: m[k] for k in count_keys} == counts for m in per_exec)
    print(f"exact counts repeat across {len(per_exec)} traced executions: "
          f"{'yes' if repeat else 'NO'}")
    cross = check_counts_file(args, counts)
    metrics = {k: (per_exec[0][k] if k in counts
                   else statistics.median(m[k] for m in per_exec))
               for k in per_exec[0]}
    metrics["trace.wall_s"] = statistics.median(walls_traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls_plain)
    print(f"traced wall_s   {summary(walls_traced)}")
    print(f"untraced wall_s {summary(walls_plain)}")
    shares = "  ".join(f"{layer} {metrics[layer + '.s'] / metrics['trace.wall_s']:.3f}"
                       for layer in spans.LAYERS + ("hermitian+loewner",))
    print(f"share of traced wall_s: {shares}")
    return metrics, repeat and cross is not False


def check_counts_file(args, counts):
    """Compare exact counts with an earlier traced run of the same seed and
    sources, if one is recorded; returns None when there is none."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    digest = _source_facts()["src_sha256"]
    earlier = json.loads(path.read_text()) if path.is_file() else None
    path.write_text(json.dumps({"src_sha256": digest, "counts": counts}, sort_keys=True))
    if earlier is None or earlier["src_sha256"] != digest:
        print("exact counts vs an earlier traced run on this seed: none recorded")
        return None
    same = earlier["counts"] == counts
    print(f"exact counts vs an earlier traced run on this seed: {'same' if same else 'DIFFERENT'}")
    return same


def main() -> int:
    if not (SRC / "specshift" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'specshift'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    args = parse_args(sorted(workloads.WORKLOADS))
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    os.environ.update(workload.env)
    ctx = context(args, workload)

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        runner = Runner(workload, work)
        runner.execute(runner.invocations(workload.warmup(args.seed), "warmup"))
        main_inv = runner.invocations(workload.configs(args.seed), "run")
        if reference is not None:
            runner.reference = {path: outcome for (_, path, _), outcome
                                in zip(main_inv, reference[args.workload])}
        measure = traced if args.trace else end_to_end
        metrics, ok = measure(args, runner, main_inv)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in runner.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    ctx["loadavg_after"] = os.getloadavg()
    print("context " + json.dumps(ctx, sort_keys=True))
    result = {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
