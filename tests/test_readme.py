"""README's library examples run, and its per-function table matches the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from specshift import build_divergent_family, catalog_ids, get_function

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    """The README text from heading ``## title`` up to the next ``## ``."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_quick_tour_runs():
    (code,) = re.findall(r"```python\n(.*?)```", _section("Library quick tour"), re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _table_rows() -> list:
    """(id, params, verdict, blocks passed, first failure) for each row of
    the per-function table; the failure is None or (block, ratio, target)."""
    rows = []
    for line in _section("Library quick tour").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`"):
            continue
        fid, params, verdict, passed, failure = cells
        params = () if params == "—" else tuple(
            float(p.replace("−", "-")) for p in params.strip("[]").split(","))
        if failure != "none":
            block, rest = failure.split(", ")
            ratio, target = rest.split(" < ")
            failure = (int(block), ratio, float(target))
        else:
            failure = None
        rows.append((fid.strip("`"), params, verdict, int(passed), failure))
    return rows


ROWS = _table_rows()


def test_table_has_a_row_per_catalog_function():
    assert sorted(row[0] for row in ROWS) == sorted(catalog_ids())


@pytest.mark.parametrize("fid,params,verdict,passed,failure", ROWS, ids=[r[0] for r in ROWS])
def test_table_row_matches_the_family(fid, params, verdict, passed, failure):
    f = get_function(fid, params)
    fam = build_divergent_family(f, 4, 1, 0, dim=2)
    assert str(f.operator_lipschitz_near_zero) == verdict
    assert len(fam.records) == passed
    if failure is None:
        assert fam.failure is None
    else:
        rec = fam.failure
        assert (rec.index, repr(rec.achieved_ratio), rec.target_ratio) == failure
