"""The benchmark under ``perfbench/`` reads the package through public names
and result shapes (``spans.py``): ``segment_refine``'s pair,
``build_divergent_family``'s ``.records``/``.failure``, ``divergence_check``
(the span behind ``sequences.bookkeeping_s``), ``scalar_ratio_witnesses``'
``.length`` / ``.levels_found`` and the hermitian kernels that
``layer_metrics`` names.  These tests run the benchmark's own self-test and
each workload's warm-up config under its tracer, so a change to those names
or shapes fails here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

from specshift import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_selftest_catches_every_tampering():
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 missed" in done.stdout


def _traced_warmup(name: str, tmp_path, monkeypatch) -> dict:
    workload = workloads.WORKLOADS[name]
    for key, value in workload.env.items():
        monkeypatch.setenv(key, value)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        for i, cfg in enumerate(workload.warmup(workloads.DEFAULT_SEED)):
            path = tmp_path / f"warmup{i}.json"
            path.write_text(json.dumps({**cfg, "output": str(tmp_path / f"warmup{i}.csv")}),
                            encoding="utf-8")
            assert cli.main([cfg["experiment"], str(path)]) == 0
    return spans.layer_metrics(tracer, 0, len(tracer), tracer.counts)


def test_divergence_warmup_counts_its_blocks(tmp_path, monkeypatch):
    metrics = _traced_warmup("divergence", tmp_path, monkeypatch)
    assert metrics["blocks.ok"] >= 1
    # the tracer reads segment_refine's (f, A, B) arguments and returned pair
    assert metrics["blocks.refine.calls"] >= 1
    assert metrics["blocks.refine_depth"] >= 1


def test_ratio_search_warmup_counts_its_evaluations(tmp_path, monkeypatch):
    assert _traced_warmup("ratio_search", tmp_path, monkeypatch)["search.evals"] > 0


def test_commuting_warmup_times_its_bookkeeping(tmp_path, monkeypatch):
    metrics = _traced_warmup("commuting", tmp_path, monkeypatch)
    assert metrics["sequences.levels"] >= 1
    assert metrics["sequences.bookkeeping_s"] > 0


def test_verify_warmup_reaches_the_traced_kernels(tmp_path, monkeypatch):
    metrics = _traced_warmup("verify", tmp_path, monkeypatch)
    for fn in ("decompose", "increment_ratio", "trace_transfer_check"):
        assert metrics[f"hermitian.{fn}.calls"] > 0
