"""End-to-end tests for the specshift command-line runner."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from specshift import DomainError, HermitianOperator, decompose, get_function
from specshift import blocks, cli, hermitian
from specshift.catalog import ScalarFunction
from specshift.cli import main
from specshift.serialize import matrix_from_json, matrix_to_json, write_text

from conftest import count_calls, random_hermitian


def _write_cfg(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestMatrixJson:
    def test_round_trip_real(self, rng):
        m = rng.uniform(-1, 1, (3, 3))
        op = HermitianOperator(m)
        back = matrix_from_json(matrix_to_json(op))
        assert np.array_equal(back.matrix, op.matrix)

    def test_round_trip_complex(self, rng):
        m = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        op = HermitianOperator(m)
        back = matrix_from_json(matrix_to_json(op))
        assert np.array_equal(back.matrix, op.matrix)

    def test_im_defaults_to_zero(self):
        op = matrix_from_json({"dim": 2, "re": [[1.0, 0.5], [0.5, 2.0]]})
        assert op.matrix.dtype == np.float64

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            matrix_from_json({"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]})

    def test_rejects_nonfinite(self):
        # null is not a JSON number
        with pytest.raises(DomainError, match="entry 0 is None"):
            matrix_from_json({"dim": 1, "re": [[None]]})

    def test_names_only_the_first_bad_entry(self):
        re = np.eye(64).tolist()
        re[3][5] = "x"
        with pytest.raises(DomainError) as exc:
            matrix_from_json({"dim": 64, "re": re})
        assert str(exc.value) == ("'re' entries: each must be a finite real number, "
                                  "but entry 197 is 'x'")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            matrix_from_json({"dim": 3, "re": [[1.0]]})

    @pytest.mark.parametrize("dim, re", [(True, [[1.0]]), (2.9, np.eye(2).tolist()),
                                         ("2", np.eye(2).tolist()),
                                         (2.0, np.eye(2).tolist())])
    def test_rejects_non_integer_dim(self, dim, re):
        with pytest.raises(DomainError, match="'dim' must be an integer"):
            matrix_from_json({"dim": dim, "re": re})

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("entry", ["1", True, [1.0]],
                             ids=["string", "bool", "nested_list"])
    def test_rejects_entries_that_are_not_numbers(self, key, entry):
        doc = {"dim": 2, "re": [[1.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        doc[key][0][0] = entry
        with pytest.raises(DomainError, match=f"'{key}' entries: each must be a finite real"):
            matrix_from_json(doc)


class TestRatioSearchCommand:
    def test_identity_rows_are_one(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "experiment": "ratio-search",
            "function": {"id": "identity", "params": []},
            "dims": [1, 3],
            "grid": {"interval": [-1, 1], "count": 5},
            "budget": 2, "seed": 4, "output": str(out)})
        assert main(["ratio-search", cfg]) == 0
        header, rows = _read_rows(out)
        assert header == ["dim", "norm_kind", "budget", "seed", "best_ratio",
                          "witness_file"]
        assert len(rows) == 4
        assert all(float(r["best_ratio"]) == 1.0 for r in rows)

    def test_abs_scalar_row_and_nesting(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "abs", "params": []},
            "dims": [1, 8],
            "grid": {"interval": [-1, 1], "count": 9},
            "budget": 3, "seed": 3, "output": str(out)})
        assert main(["ratio-search", cfg]) == 0
        _, rows = _read_rows(out)
        by_key = {(r["dim"], r["norm_kind"]): float(r["best_ratio"]) for r in rows}
        # dim 1: the scalar quotient of abs is capped by 1 and attained
        assert by_key[("1", "schatten1")] == 1.0
        assert by_key[("1", "operator")] == 1.0
        # oracle: dim-8 search space contains every dim-1 witness
        assert by_key[("8", "schatten1")] >= 1.0

    def test_witness_files_round_trip(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "abs", "params": []},
            "dims": [2],
            "grid": {"interval": [-1, 1], "count": 5},
            "budget": 2, "seed": 9, "output": str(out)})
        assert main(["ratio-search", cfg]) == 0
        _, rows = _read_rows(out)
        for row in rows:
            doc = json.loads((tmp_path / row["witness_file"]).read_text())
            assert doc["function"] == {"id": "abs", "params": []}
            assert doc["norm_kind"] == row["norm_kind"]
            assert doc["value"] == float(row["best_ratio"])
            matrix_from_json(doc["A"])
            matrix_from_json(doc["B"])

    def test_config_errors_exit_2(self, tmp_path):
        bad = _write_cfg(tmp_path / "bad.json", {
            "function": {"id": "abs"}, "dims": [], "budget": 1, "seed": 0,
            "grid": {"interval": [-1, 1], "count": 5}, "output": "x.csv"})
        assert main(["ratio-search", bad]) == 2
        unknown = _write_cfg(tmp_path / "unknown.json", {
            "function": {"id": "nope"}, "dims": [1], "budget": 1, "seed": 0,
            "grid": {"interval": [-1, 1], "count": 5}, "output": "x.csv"})
        assert main(["ratio-search", unknown]) == 2
        assert main(["ratio-search", str(tmp_path / "missing.json")]) == 2

    # 10**20 points exceed the 9214364837600034817 doubles in [-1, 1]
    @pytest.mark.parametrize("dims, count", [([True], 5), ([1, True], 5),
                                             ([1, 2.0], 5), ([1], True),
                                             ([1], 5.0), ([1], 10**20)])
    def test_bad_dims_or_count_exits_2(self, tmp_path, capsys, dims, count):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "abs"}, "dims": dims,
            "grid": {"interval": [-1, 1], "count": count},
            "budget": 1, "seed": 0, "output": str(out)})
        assert main(["ratio-search", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("ref", [{"id": "constant", "params": "5"},
                                     {"id": "poly", "params": {"1": 2}},
                                     {"id": "constant", "params": [True]},
                                     {"id": ["abs"]}, {"id": 5},
                                     {"id": "smoothed_abs", "params": ["0.05"]}],
                             ids=["params_string", "params_object", "params_boolean",
                                  "id_list", "id_number", "params_string_element"])
    def test_malformed_function_exits_2(self, tmp_path, capsys, ref, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(cli, "seminorm_lower_bound", no_search)
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": ref, "dims": [1], "grid": {"interval": [-1, 1], "count": 5},
            "budget": 1, "seed": 0, "output": str(tmp_path / "report.csv")})
        assert main(["ratio-search", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe")
        assert main(["ratio-search", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_experiment_mismatch_exit_2(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "experiment": "divergence",
            "function": {"id": "abs"}, "dims": [1],
            "grid": {"interval": [-1, 1], "count": 5},
            "budget": 1, "seed": 0, "output": "x.csv"})
        assert main(["ratio-search", cfg]) == 2

    @pytest.mark.parametrize("fid, params", [("poly", "1e400"), ("poly", "NaN"),
                                             ("poly", "-Infinity"), ("poly", "0.5, Infinity"),
                                             ("constant", "1e400"), ("constant", "NaN")])
    def test_nonfinite_params_exit_2_before_running(self, tmp_path, capsys, fid, params):
        # written by hand: json.dumps cannot produce 1e400
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"function": {"id": "%s", "params": [%s]}, "dims": [1, 2], "budget": 1, '
            '"seed": 0, "grid": {"interval": [-1, 1], "count": 5}, "output": "%s"}'
            % (fid, params, tmp_path / "report.csv"), encoding="utf-8")
        assert main(["ratio-search", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("interval", [[1.0, -1.0], [0.0, float("inf")],
                                          "ab", [1], [None, 1], [True, 2],
                                          [0, 10**400], [-1e308, 1e308],
                                          [1, 1.0000000000000004]])
    def test_bad_interval_exits_2(self, tmp_path, interval):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "abs"}, "dims": [1],
            "grid": {"interval": interval, "count": 5},
            "budget": 1, "seed": 0, "output": str(out)})
        assert main(["ratio-search", cfg]) == 2
        assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("function", {"id": "nope", "params": []}),
    ("function", {"id": "smoothed_abs", "params": [-1.0]}),
    ("grid", {"interval": [1.0, -1.0], "count": 5})],
    ids=["unknown_function_id", "bad_function_params", "reversed_grid_interval"])
def test_library_input_errors_exit_2(tmp_path, capsys, monkeypatch, field, value):
    # catalog and grid errors are configuration errors, raised before any search
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "seminorm_lower_bound", no_search)
    cfg = _write_cfg(tmp_path / "cfg.json", dict({
        "function": {"id": "abs"}, "dims": [1], "budget": 1, "seed": 0,
        "grid": {"interval": [-1, 1], "count": 5},
        "output": str(tmp_path / "report.csv")}, **{field: value}))
    assert main(["ratio-search", cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command, field, value", [
    ("commuting", "seed", -1), ("divergence", "dim", 0), ("divergence", "K", "3"),
    ("divergence", "seed", -1), ("divergence", "budget", 0)])
def test_library_argument_errors_exit_2(tmp_path, capsys, command, field, value):
    # the library function that uses a field checks it and names the value
    # the config gave (not a block seed derived from it)
    cfg = _write_cfg(tmp_path / "cfg.json", dict({
        "function": {"id": "sqrt_abs"}, "K": 2, "budget": 1, "seed": 0,
        "output": str(tmp_path / "report.csv")}, **{field: value}))
    assert main([command, cfg]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and line.endswith(f"got {value!r}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestDivergenceCommand:
    def _cfg(self, tmp_path, fid, levels, out_name="report.csv"):
        out = tmp_path / out_name
        return out, _write_cfg(tmp_path / f"{fid}_{out_name}.json", {
            "function": {"id": fid, "params": []},
            "K": levels, "delta0": 1.0, "budget": 3, "seed": 11, "dim": 2,
            "output": str(out)})

    def test_sqrt_abs_rows(self, tmp_path):
        out, cfg = self._cfg(tmp_path, "sqrt_abs", 10)
        assert main(["divergence", cfg]) == 0
        header, rows = _read_rows(out)
        assert header == ["n", "delta", "target_ratio", "achieved_ratio",
                          "multiplicity", "increment_s1",
                          "perturbation_partial_sum", "increment_partial_sum",
                          "status"]
        assert len(rows) == 10
        assert all(r["status"] == "ok" for r in rows)
        assert float(rows[-1]["increment_partial_sum"]) >= 5.0
        assert float(rows[-1]["perturbation_partial_sum"]) < 1.1

    def test_identity_truncates(self, tmp_path):
        out, cfg = self._cfg(tmp_path, "identity", 3)
        assert main(["divergence", cfg]) == 0
        _, rows = _read_rows(out)
        assert len(rows) == 1
        assert rows[0]["n"] == "1"
        assert rows[0]["status"] == "failed"

    def test_abs_records_achieved_values(self, tmp_path):
        out, cfg = self._cfg(tmp_path, "abs", 5)
        assert main(["divergence", cfg]) == 0
        _, rows = _read_rows(out)
        assert rows[-1]["status"] == "failed"
        for row in rows:
            float(row["achieved_ratio"])  # recorded, not asserted

    def test_family_sidecar_json(self, tmp_path):
        out, cfg = self._cfg(tmp_path, "sqrt_abs", 4)
        assert main(["divergence", cfg]) == 0
        doc = json.loads((tmp_path / "report_family.json").read_text())
        assert len(doc) == 4
        for entry in doc:
            assert entry["status"] == "ok"
            assert int(entry["multiplicity"]) >= 1
            matrix_from_json(entry["A"])

    def test_one_point_window_fails_block_1_and_exits_0(self, tmp_path):
        # delta0 1e-323 halves to a window whose grid is the one point 0
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "sqrt_abs"}, "K": 1, "delta0": 1e-323,
            "budget": 1, "seed": 0, "output": str(out)})
        assert main(["divergence", cfg]) == 0
        _, rows = _read_rows(out)
        assert [(r["n"], r["achieved_ratio"], r["multiplicity"], r["status"])
                for r in rows] == [("1", "0", "0", "failed")]
        (doc,) = json.loads((tmp_path / "report_family.json").read_text())
        assert (doc["achieved_ratio"], doc["A"], doc["B"]) == (0.0, None, None)

    def test_byte_identical_reruns(self, tmp_path):
        out, cfg = self._cfg(tmp_path, "sqrt_abs", 6)
        assert main(["divergence", cfg]) == 0
        first = out.read_bytes()
        assert main(["divergence", cfg]) == 0
        assert out.read_bytes() == first

    def test_partial_sums_take_one_pass(self, tmp_path, monkeypatch):
        # a constant number of exact products per block: summing each row's
        # prefix afresh makes K(K + 1) of them
        levels = 40
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "sqrt_abs", "params": []},
            "K": levels, "budget": 1, "seed": 0, "dim": 2, "output": str(out)})
        calls = count_calls(monkeypatch, blocks, "weighted")
        assert main(["divergence", cfg]) == 0
        assert len(_read_rows(out)[1]) == levels
        assert len(calls) <= 8 * levels

    def test_bool_delta0_exits_2(self, tmp_path):
        out = tmp_path / "report.csv"
        # 10**400 is a JSON integer too large for a float
        for delta0 in (True, 10**400):
            cfg = _write_cfg(tmp_path / "cfg.json", {
                "function": {"id": "sqrt_abs", "params": []},
                "K": 2, "delta0": delta0, "budget": 1, "seed": 0,
                "output": str(out)})
            assert main(["divergence", cfg]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("levels,delta0", [(1080, 1.0), (5000, 1.0), (10**12, 1.0),
                                               (1074, 0.625)])
    def test_schedule_underflow_exits_2(self, tmp_path, levels, delta0):
        # delta0 * 2**-K is 0.0 for the first three (the schedule is checked
        # without being built); for the last the last two deltas both round
        # to the smallest subnormal
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "sqrt_abs", "params": []},
            "K": levels, "delta0": delta0, "budget": 1, "seed": 0,
            "output": str(out)})
        assert main(["divergence", cfg]) == 2
        assert not out.exists()


class TestCommutingCommand:
    def test_sqrt_abs_all_levels_ok(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "sqrt_abs", "params": []},
            "K": 20, "search_grid": 801, "seed": 5, "output": str(out)})
        assert main(["commuting", cfg]) == 0
        _, rows = _read_rows(out)
        assert len(rows) == 20
        assert all(r["ok"] == "true" for r in rows)
        doc = json.loads((tmp_path / "report_witness.json").read_text())
        assert doc["status"] == "ok"
        assert len(doc["t"]) == 20
        assert all(int(n) >= 1 for n in doc["n"])

    def test_identity_not_found_exit_zero(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "identity", "params": []},
            "K": 4, "search_grid": 301, "seed": 5, "output": str(out)})
        assert main(["commuting", cfg]) == 0
        _, rows = _read_rows(out)
        assert rows == []
        doc = json.loads((tmp_path / "report_witness.json").read_text())
        assert doc["status"] == "not_found"
        assert doc["t"] == []
        assert doc["failed_level"] == 1

    def test_xsin_inv_not_found(self, tmp_path):
        # xsin_inv's extrema carry it through level 51, not past it
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "xsin_inv", "params": []},
            "K": 60, "search_grid": 2001, "seed": 7, "output": str(out)})
        assert main(["commuting", cfg]) == 0
        doc = json.loads((tmp_path / "report_witness.json").read_text())
        assert doc["status"] == "not_found"

    def test_xsin_inv_many_levels_not_found_at_level_52(self, tmp_path):
        # level 52 misses whatever K is: from there on adjacent extrema would
        # fall within about an ulp, so the grid has none; each level's ladder
        # has max(64, 2k) rungs, so no grid holds a subnormal where 1/x overflows
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "xsin_inv", "params": []},
            "K": 600, "search_grid": 2001, "seed": 1, "output": str(out)})
        assert main(["commuting", cfg]) == 0
        _, rows = _read_rows(out)
        assert rows == []
        doc = json.loads((tmp_path / "report_witness.json").read_text())
        assert doc["status"] == "not_found"
        assert doc["failed_level"] == 52

    def test_level_past_float_range_not_found(self, tmp_path):
        # f(x) = 1.7e308 x beats 2**k at every level up to 1023; the target
        # 2**1024 exceeds every finite double, so level 1024 is a miss
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "poly", "params": [0.0, 1.7e308]},
            "K": 1030, "search_grid": 101, "seed": 0, "output": str(out)})
        assert main(["commuting", cfg]) == 0
        _, rows = _read_rows(out)
        assert rows == []
        doc = json.loads((tmp_path / "report_witness.json").read_text())
        assert doc["status"] == "not_found"
        assert doc["failed_level"] == 1024
        assert doc["best_quotient"] == 1.7040632840882369e+308


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {"seed": 42, "output": str(out)})
        assert main(["verify", cfg]) == 0
        _, rows = _read_rows(out)
        assert rows and all(r["status"] == "pass" for r in rows)
        names = [r["check"] for r in rows]
        assert "loewner_identity_poly" in names
        poly_row = next(r for r in rows if r["check"] == "loewner_identity_poly")
        assert float(poly_row["residual"]) <= float(poly_row["tolerance"])

    def test_asymmetric_fixture_exits_3(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 1, "output": str(out),
            "matrices": [{"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]}]})
        assert main(["verify", cfg]) == 3

    def test_nan_fixture_exits_3(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 1, "output": str(out),
            "matrices": [{"dim": 1, "re": [[None]]}]})
        assert main(["verify", cfg]) == 3

    @pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe"])
    def test_unreadable_fixture_path_exits_2(self, tmp_path, capsys, content):
        fixture = tmp_path / "fixture.json"
        if isinstance(content, str):
            fixture.write_text(content, encoding="utf-8")
        elif content is not None:
            fixture.write_bytes(content)
        out = tmp_path / "out" / "report.csv"
        out.parent.mkdir()
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 1, "output": str(out), "matrices": [str(fixture)]})
        assert main(["verify", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_dim_fixture_exits_3(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 1, "output": str(out),
            "matrices": [{"dim": True, "re": [[1.0]]}]})
        assert main(["verify", cfg]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("re", [[["1", "0"], ["0", "2"]],
                                    [[True, False], [False, True]]],
                             ids=["strings", "bools"])
    def test_non_number_entries_fixture_exits_3(self, tmp_path, re):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 1, "output": str(out), "matrices": [{"dim": 2, "re": re}]})
        assert main(["verify", cfg]) == 3
        assert not out.exists()

    def test_fixture_near_the_float_limit_passes(self, tmp_path):
        # finite and Hermitian, although M + M* overflows at 1e308
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 1, "output": str(out),
            "matrices": [{"dim": 2, "re": [[1.0, 0.0], [0.0, 1e308]]}]})
        assert main(["verify", cfg]) == 0
        _, rows = _read_rows(out)
        row = {r["check"]: r for r in rows}["fixture_0_reconstruction"]
        assert row["status"] == "pass" and row["tolerance"] == f"{1e-10 * 1e308:.17g}"

    def test_fixture_row_reports_decompose_residual(self, tmp_path, rng):
        out = tmp_path / "report.csv"
        ops = [random_hermitian(rng, 4), random_hermitian(rng, 5, complex_entries=True)]
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 3, "output": str(out),
            "matrices": [matrix_to_json(op) for op in ops]})
        assert main(["verify", cfg]) == 0
        _, rows = _read_rows(out)
        by_name = {r["check"]: r for r in rows}
        for idx, op in enumerate(ops):
            dec = decompose(op)
            recon = np.abs((dec.eigenvectors * dec.eigenvalues)
                           @ dec.eigenvectors.conj().T - op.matrix).max()
            row = by_name[f"fixture_{idx}_reconstruction"]
            assert row["residual"] == f"{float(recon):.17g}"
            assert row["tolerance"] == f"{1e-10 * max(1.0, float(np.abs(op.matrix).max())):.17g}"

    def test_fixture_row_tolerance_is_the_one_decompose_enforces(
            self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(hermitian, "_EIG_TOL", 1e-9)
        out = tmp_path / "report.csv"
        op = random_hermitian(rng, 4)
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 3, "output": str(out), "matrices": [matrix_to_json(op)]})
        assert main(["verify", cfg]) == 0
        _, rows = _read_rows(out)
        row = {r["check"]: r for r in rows}["fixture_0_reconstruction"]
        assert row["tolerance"] == f"{1e-9 * max(1.0, float(np.abs(op.matrix).max())):.17g}"

    def test_asymmetric_fixture_path_exits_3(self, tmp_path):
        fixture = _write_cfg(tmp_path / "fixture.json",
                             {"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]})
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 1, "output": str(tmp_path / "report.csv"),
            "matrices": [fixture]})
        assert main(["verify", cfg]) == 3

    def test_good_fixture_gets_a_row(self, tmp_path, rng):
        out = tmp_path / "report.csv"
        m = rng.uniform(-1, 1, (3, 3))
        doc = matrix_to_json(HermitianOperator(m))
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "seed": 7, "output": str(out), "matrices": [doc]})
        assert main(["verify", cfg]) == 0
        _, rows = _read_rows(out)
        assert any(r["check"] == "fixture_0_reconstruction" for r in rows)


    def test_failed_check_writes_the_report_and_exits_3(self, tmp_path, monkeypatch,
                                                         capsys):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {"seed": 1, "output": str(out)})
        monkeypatch.setattr(cli, "_norm_ordering", lambda fs, x: [[1.0]] * len(x))
        assert main(["verify", cfg]) == 3
        assert capsys.readouterr().err == "verification failed: norm_ordering\n"
        _, rows = _read_rows(out)
        status = {r["check"]: r["status"] for r in rows}
        assert status.pop("norm_ordering") == "fail"
        assert len(status) == 13 and set(status.values()) == {"pass"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "report.csv"]

    def test_failed_row_reports_its_worst_trial(self, tmp_path, monkeypatch):
        # trials mismatching in 0, 1 and 2 ways: the row reads 2, not their sum
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {"seed": 1, "output": str(out)})
        monkeypatch.setattr(cli, "_truncation_rank",
                            lambda fs, x, delta: [[i % 3] for i in range(len(x))])
        assert main(["verify", cfg]) == 3
        _, rows = _read_rows(out)
        row = {r["check"]: r for r in rows}["spectral_truncation_rank"]
        assert (row["residual"], row["status"]) == ("2", "fail")

    def test_trace_transfer_row_fails_when_the_truncation_moves(self, tmp_path,
                                                                monkeypatch, capsys):
        # A_delta moved by a relative 1e-6: f(A) - f(A_delta) no longer equals
        # the tail formed from A's eigensolve alone
        real = hermitian.spectral_truncation

        def moved(dec, deltas):
            truncated, discarded = real(dec, deltas)
            return truncated * (1.0 + 1e-6), discarded

        monkeypatch.setattr(hermitian, "spectral_truncation", moved)
        cfg = _write_cfg(tmp_path / "cfg.json",
                         {"seed": 1, "output": str(tmp_path / "report.csv")})
        assert main(["verify", cfg]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("verification failed: ")
        assert "trace_transfer_reassembly" in line


class TestVerifyByStacks:
    """verify scores each check's trials one same-dim stack at a time."""

    @staticmethod
    def _exits_3_without_report(tmp_path, capsys):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {"seed": 1, "output": str(out)})
        assert main(["verify", cfg]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not out.exists()

    def test_domain_error_in_a_stack_exits_3(self, tmp_path, monkeypatch, capsys):
        real = cli.get_function

        def sin_without_values(fid, params=()):
            if fid == "sin":
                return ScalarFunction("sin", (), lambda x: np.full_like(x, np.nan))
            return real(fid, params)

        monkeypatch.setattr(cli, "get_function", sin_without_values)
        self._exits_3_without_report(tmp_path, capsys)

    def test_convergence_failure_in_a_stack_exits_3(self, tmp_path, monkeypatch, capsys):
        real_eigh = np.linalg.eigh

        def eigh_spoiling_stacks(m):
            w, u = real_eigh(m)
            return (w, 2.0 * u) if m.ndim > 2 else (w, u)

        monkeypatch.setattr(np.linalg, "eigh", eigh_spoiling_stacks)
        self._exits_3_without_report(tmp_path, capsys)

    def test_one_eigensolve_per_stack(self, tmp_path, monkeypatch):
        # seed 30, the benchmark's first invocation: 288 solves one by one
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        cfg = _write_cfg(tmp_path / "cfg.json",
                         {"seed": 30, "output": str(tmp_path / "report.csv")})
        assert main(["verify", cfg]) == 0
        assert len(calls) <= 80


class TestOutputPath:
    CONFIGS = {
        "ratio-search": {"function": {"id": "abs"}, "dims": [1],
                         "grid": {"interval": [-1, 1], "count": 5},
                         "budget": 1, "seed": 0},
        "divergence": {"function": {"id": "sqrt_abs"}, "K": 2, "budget": 1,
                       "seed": 0},
        "commuting": {"function": {"id": "sqrt_abs"}, "K": 30,
                      "search_grid": 2001, "seed": 0},
        "verify": {"seed": 0},
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_missing_directory_exits_2_before_running(self, tmp_path,
                                                      command, capsys):
        cfg = _write_cfg(tmp_path / "cfg.json", dict(
            self.CONFIGS[command],
            output=str(tmp_path / "missing" / "report.csv")))
        assert main([command, cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_directory_as_output_exits_2(self, tmp_path):
        (tmp_path / "report.csv").mkdir()
        cfg = _write_cfg(tmp_path / "cfg.json", dict(
            self.CONFIGS["commuting"], output=str(tmp_path / "report.csv")))
        assert main(["commuting", cfg]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                              "report.csv"]
        assert not (tmp_path / "report_witness.json").exists()


class TestNoPartialOutputs:
    def test_failed_later_dim_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        search = cli.seminorm_lower_bound

        def fail_at_dim_2(f, grid, dim, *args):
            if dim == 2:
                raise FloatingPointError("search failed")
            return search(f, grid, dim, *args)

        monkeypatch.setattr(cli, "seminorm_lower_bound", fail_at_dim_2)
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "abs"}, "dims": [1, 2],
            "grid": {"interval": [-1, 1], "count": 5},
            "budget": 1, "seed": 0, "output": str(out_dir / "report.csv")})
        assert main(["ratio-search", cfg]) == 3
        assert "search failed" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_failed_serialisation_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        to_json = cli.witness_to_json

        def fail_at_dim_2(result, ref):
            if result.witness.a.matrix.shape == (2, 2):
                raise ValueError("cannot serialise")
            return to_json(result, ref)

        monkeypatch.setattr(cli, "witness_to_json", fail_at_dim_2)
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "abs"}, "dims": [1, 2],
            "grid": {"interval": [-1, 1], "count": 5},
            "budget": 1, "seed": 0, "output": str(out_dir / "report.csv")})
        assert main(["ratio-search", cfg]) == 3
        assert "cannot serialise" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_write_text_follows_symlink(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old\n")
        link = tmp_path / "report.csv"
        link.symlink_to(target)
        write_text(str(link), "new\n")
        assert link.is_symlink() and target.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "target.csv"]

    def test_write_text_replaces_whole_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.csv"
        write_text(str(path), "old\n")
        write_text(str(path), "new\n")
        assert path.read_bytes() == b"new\n"

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            write_text(str(path), "partial\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


class TestFlagsAndFormats:
    def test_one_parser_keeps_no_state_between_calls(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        verify_out, commuting_out = tmp_path / "verify.json", tmp_path / "commuting.csv"
        verify_cfg = _write_cfg(tmp_path / "verify_cfg.json",
                                {"seed": 3, "output": str(tmp_path / "unused.csv")})
        commuting_cfg = _write_cfg(tmp_path / "commuting_cfg.json", {
            "function": {"id": "sqrt_abs", "params": []}, "K": 3,
            "search_grid": 101, "seed": 2, "output": str(commuting_out)})
        assert main(["verify", verify_cfg, "--format", "json", "--seed", "9",
                     "--output", str(verify_out)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["commuting", commuting_cfg, "--format", "xml"])
        assert exc.value.code == 2
        assert main(["commuting", commuting_cfg]) == 0
        # no flag of an earlier call carries over: the config's csv output
        assert json.loads(verify_out.read_text())["columns"][0] == "check"
        header, rows = _read_rows(commuting_out)
        assert header[0] == "k" and len(rows) == 3
        assert not (tmp_path / "unused.csv").exists()
        assert vars(cli.build_parser().parse_args(["commuting", "c.json"])) == {
            "command": "commuting", "config": "c.json",
            "seed": None, "output": None, "format": None}

    def test_seed_and_output_overrides(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "sqrt_abs", "params": []},
            "K": 3, "budget": 2, "seed": 1, "dim": 1, "output": str(out_a)})
        assert main(["divergence", cfg]) == 0
        assert main(["divergence", cfg, "--output", str(out_b), "--seed", "1"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "identity", "params": []},
            "dims": [1], "grid": {"interval": [-1, 1], "count": 3},
            "budget": 1, "seed": 0, "output": str(out), "format": "json"})
        assert main(["ratio-search", cfg]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "dim"
        assert len(doc["rows"]) == 2

    def test_line_endings_are_unix(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = _write_cfg(tmp_path / "cfg.json", {
            "function": {"id": "identity", "params": []},
            "dims": [1], "grid": {"interval": [-1, 1], "count": 3},
            "budget": 1, "seed": 0, "output": str(out)})
        assert main(["ratio-search", cfg]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def test_module_entry_point(tmp_path):
    out = tmp_path / "report.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "function": {"id": "identity", "params": []},
        "dims": [1], "grid": {"interval": [-1, 1], "count": 3},
        "budget": 1, "seed": 0, "output": str(out)}))
    proc = subprocess.run(
        [sys.executable, "-m", "specshift", "ratio-search", str(cfg)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
