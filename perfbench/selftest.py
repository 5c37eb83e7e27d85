"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload's small warm-up config once, confirms that its outputs
pass the checks, then tampers with a fresh copy of the outputs in one way at
a time and confirms that the checks count the invocation as a failed
operation (rather than crashing or passing it).  Exits 0 when every
tampering is caught.
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def _edit_csv(path: str, row: int, column: str, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows[row][column] = change(rows[row][column])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _edit_witness(path: str) -> None:
    """Replace the first witness pair, keeping its value, by A = diag(1, -1)
    and B = the swap of the first two basis vectors: abs scores 0 on it."""
    folder = Path(path).parent
    with open(path, newline="", encoding="utf-8") as fh:
        witness = folder / next(csv.DictReader(fh))["witness_file"]
    doc = json.loads(witness.read_text())
    dim = doc["A"]["dim"]
    a = [[0.0] * dim for _ in range(dim)]
    b = [[0.0] * dim for _ in range(dim)]
    a[0][0], a[1][1], b[0][1], b[1][0] = 1.0, -1.0, 1.0, 1.0
    doc["A"], doc["B"] = {"dim": dim, "re": a}, {"dim": dim, "re": b}
    witness.write_text(json.dumps(doc))


def _garble(path: str) -> None:
    Path(path).write_text("not,a\nreport")


#: workload -> [(description, tamper(report path))]
TAMPERINGS = {
    "divergence": [
        ("status ok -> failed", lambda p: _edit_csv(p, 0, "status", lambda v: "failed")),
        ("aggregate increment above 1",
         lambda p: _edit_csv(p, 1, "increment_s1", lambda v: "1.5")),
        ("garbled report", _garble),
    ],
    "ratio_search": [
        ("best_ratio altered",
         lambda p: _edit_csv(p, 1, "best_ratio", lambda v: repr(float(v) * 1.001))),
        ("witness matrix altered", _edit_witness),
    ],
    "commuting": [
        ("ok true -> false", lambda p: _edit_csv(p, 2, "ok", lambda v: "false")),
    ],
    "verify": [
        ("status pass -> fail", lambda p: _edit_csv(p, 0, "status", lambda v: "fail")),
    ],
}


def main() -> int:
    if not (run.SRC / "specshift" / "__init__.py").is_file():
        print(f"selftest: no package sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.OUT.mkdir(exist_ok=True)
    caught = missed = 0
    for name, tamperings in TAMPERINGS.items():
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as tmp:
            clean, work = Path(tmp, "clean"), Path(tmp, "work")
            clean.mkdir()
            runner = run.Runner(workload, clean)
            inv = runner.invocations(workload.warmup(workloads.DEFAULT_SEED), "run")
            _, codes = runner.run(inv)
            runner.check(inv, codes)
            if runner.failed:
                print(f"{name}: untampered outputs fail: {runner.problems}")
                return 1
            for what, tamper in tamperings:
                shutil.rmtree(work, ignore_errors=True)
                shutil.copytree(clean, work)
                moved = [(cfg, path, str(work / Path(out).name)) for cfg, path, out in inv]
                tamper(moved[0][2])
                fresh = run.Runner(workload, work)
                fresh.check(moved, codes)
                ok = fresh.attempted == len(moved) and fresh.failed == 1
                caught += ok
                missed += not ok
                print(f"{name}: {what}: {'counted as failed' if ok else 'NOT CAUGHT'}"
                      + (f"  ({fresh.problems[0][:120]})" if fresh.problems else ""))
    print(f"self-test: {caught} tamperings caught, {missed} missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
