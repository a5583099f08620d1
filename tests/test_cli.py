"""Sweep, optimize, and verify entry points plus exit-code mapping."""
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import lossymem
from lossymem import cli, information, oracle
from lossymem.cli import SweepSpec, build_parser, main, optimize, sweep, verify
from lossymem.errors import (
    InvalidSpec,
    NotPositiveDefinite,
    PhotonBudgetExceeded,
)
from lossymem.information import _gain_grid, mutual_information, optimize_r, r_limit, rate_gain
from lossymem.channel_model import N_EFF_MAX, S_MAX, ChannelParams

from faults import MOMENT_GRID_FAULTS, noise_rows_scaled, patch_everywhere
from path_bound import gains_agree, paths_agree

HEADER = "s,r,N,I_mu,I_zeta,I_joint,I_r,rate,gain"


def small_spec(path, **overrides):
    fields = dict(n=2, eta=0.8, n_eff=2.0, s_list=(0.0, 2.0), r_min=-0.5,
                  r_max=0.5, r_steps=5, output_path=str(path))
    fields.update(overrides)
    return SweepSpec(**fields)


def csv_lines(spec):
    """Run the sweep and return its CSV's lines after the header."""
    sweep(spec, stream=io.StringIO())
    with open(spec.output_path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == HEADER
    return lines[1:]


def grid_of(spec):
    """The sweep's evaluation: _gain_grid on its sorted s and its r grid."""
    return _gain_grid(spec.n, spec.eta, spec.n_eff, sorted(spec.s_list), cli._r_grid(spec))


# ---------------------------------------------------------------- spec

def test_sweep_spec_validation(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidSpec):
        small_spec(path, s_list=())
    with pytest.raises(InvalidSpec):
        small_spec(path, eta=1.5)
    with pytest.raises(InvalidSpec):
        small_spec(path, r_steps=1)
    with pytest.raises(InvalidSpec):
        small_spec(path, r_steps=True)
    with pytest.raises(InvalidSpec):
        small_spec(path, r_min=0.5, r_max=-0.5)
    with pytest.raises(InvalidSpec):
        small_spec(path, r_min=math.inf)
    with pytest.raises(InvalidSpec):
        small_spec(path, r_min=2.0, r_max=3.0)
    with pytest.raises(InvalidSpec):
        small_spec(path, output_path="")


def test_sweep_spec_refuses_an_oversized_grid(tmp_path):
    # the spec alone: a sweep on such a grid would try to allocate it
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidSpec, match="SWEEP_MAX_ROWS"):
        small_spec(path, s_list=(0.0, 1.0, 2.0, 5.0), r_steps=10 ** 11)
    with pytest.raises(InvalidSpec):
        small_spec(path, s_list=(0.0,), r_steps=cli.SWEEP_MAX_ROWS + 1)
    small_spec(path, s_list=(0.0, 1.0, 2.0, 5.0), r_steps=cli.SWEEP_MAX_ROWS // 4)


# ---------------------------------------------------------------- sweep

def test_sweep_rows_and_csv(tmp_path):
    path = tmp_path / "out.csv"
    spec = small_spec(path)
    rows = [[float(v) for v in line.split(",")] for line in csv_lines(spec)]

    assert len(rows) == 10
    assert [row[0] for row in rows] == [0.0] * 5 + [2.0] * 5
    for chunk in (rows[:5], rows[5:]):
        r_values = [row[1] for row in chunk]
        assert r_values == sorted(r_values)
        mid = chunk[2]
        assert mid[1] == 0.0
        assert mid[8] == 0.0

    raw = path.read_text(encoding="ascii")
    assert raw.endswith("\n") and not raw.endswith("\n\n")
    assert "\r" not in raw and " " not in raw
    lines = raw.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 11
    baseline = lines[3].split(",")
    assert baseline[1] == "0"
    assert baseline[-1] == "0"
    r_ok, n_mod, gain, info, _ = grid_of(spec)
    want = (0.0, r_ok[0], n_mod[0], info.i_mu[0, 0], info.i_zeta[0, 0], info.i_joint[0, 0],
            info.i_r[0, 0], info.rate[0, 0], gain[0, 0])
    for got, value in zip(rows[0], want):
        assert got == pytest.approx(value, rel=1e-11)


def test_sweep_csv_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep(small_spec(a), stream=io.StringIO())
    sweep(small_spec(b), stream=io.StringIO())
    assert a.read_bytes() == b.read_bytes()


def test_sweep_is_one_stacked_evaluation(tmp_path, monkeypatch):
    # one budget call over r and one closed-form call over the whole (s, r)
    # grid, whatever the number of s
    calls = []

    def counted(name):
        original = getattr(information, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("photon_budgets", "_closed_form"):
        monkeypatch.setattr(information, name, counted(name))
    lines = csv_lines(small_spec(tmp_path / "out.csv", s_list=(5.0, 0.0, 2.0, -1.0, 0.0)))
    assert len(lines) == 25
    assert sorted(calls) == ["_closed_form", "photon_budgets"]


def test_sweep_skips_points_outside_budget(tmp_path):
    # the budget depends on r alone: every s, a repeated one and -0.0
    # included, skips the same points
    path = tmp_path / "out.csv"
    assert r_limit(2.0) < 1.3
    for s_list in ((0.0,), (2.0, -0.0, 5.0, 2.0, -1.5)):
        spec = small_spec(path, s_list=s_list, r_min=-1.3, r_max=1.3, r_steps=9)
        buf = io.StringIO()
        sweep(spec, stream=buf)
        s_lines = buf.getvalue().splitlines()[1:-2]
        assert len(path.read_text(encoding="ascii").splitlines()) == 1 + 7 * len(s_list)
        assert [line.split()[1:3] for line in s_lines] == [["rows=7", "skipped=2"]] * len(s_list)
        assert [line.split()[0] for line in s_lines] == [
            f"s={cli._fmt(s)}:" for s in sorted(s_list)]
        assert buf.getvalue().splitlines()[-2] == (
            f"total rows={7 * len(s_list)} skipped={2 * len(s_list)} grid={9 * len(s_list)}")


@pytest.mark.parametrize("value", [
    -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.8e308, 1 / 3, np.float64(-0.0)])
def test_fmt_prints_twelve_digits_and_zero_without_sign(value):
    v = float(value)
    assert cli._fmt(value) == format(v if v else 0.0, ".12g")


def test_sweep_degenerate_grid(tmp_path):
    path = tmp_path / "out.csv"
    spec = small_spec(path, s_list=(1.0,), r_min=0.0, r_max=0.0, r_steps=2)
    lines = csv_lines(spec)
    assert len(lines) == 2
    assert lines[0] == lines[1]
    assert lines[0].split(",")[8] == "0"


def test_sweep_grid_finer_than_the_snap_keeps_its_points(tmp_path):
    # |r| < 1e-12 snaps to 0 only within half a step: a 5e-13 step writes
    # its five points, and only the midpoint is the r = 0 baseline row
    spec = small_spec(tmp_path / "out.csv", s_list=(1.0,), r_min=-1e-12, r_max=1e-12)
    rows = [line.split(",") for line in csv_lines(spec)]
    assert [row[1] for row in rows] == ["-1e-12", "-5e-13", "0", "5e-13", "1e-12"]
    assert [row[8] == "0" for row in rows] == [False, False, True, False, False]


def test_sweep_reproduces_gain_profiles(tmp_path):
    # the reference gain-profile grids, checked through the emitted CSV
    def series(n_eff, path):
        spec = SweepSpec(n=2, eta=0.8, n_eff=n_eff, s_list=(0.0, 5.0),
                         r_min=-1.1, r_max=1.1, r_steps=221, output_path=str(path))
        sweep(spec, stream=io.StringIO())
        table = {}
        for line in path.read_text(encoding="ascii").splitlines()[1:]:
            fields = [float(v) for v in line.split(",")]
            table.setdefault(fields[0], []).append((fields[1], fields[8]))
        return table

    low = series(2.0, tmp_path / "low.csv")
    base = low[0.0]
    assert len(base) == 221
    assert max(g for _, g in base) <= 1e-9
    assert max(abs(base[i][1] - base[220 - i][1]) for i in range(110)) <= 1e-8
    useful_low = sum(1 for r, g in low[5.0] if r > 0 and g > 0)
    assert useful_low > 0

    high = series(20.0, tmp_path / "high.csv")
    useful_high = sum(1 for r, g in high[5.0] if r > 0 and g > 0)
    assert useful_high > useful_low


@pytest.mark.parametrize("n_eff", ["2", "20"])
def test_sweep_writes_the_same_bytes_in_any_slice_size(tmp_path, monkeypatch, capsys, n_eff):
    # the default 221-row grid, written in one slice per s block and in
    # slices of 1, 7 and 220 rows, the last leaving a one-row slice
    path = tmp_path / "sweep.csv"

    def run():
        assert main(["sweep", "--neff", n_eff, "--out", str(path)]) == 0
        return path.read_bytes(), capsys.readouterr().out

    whole = run()
    assert whole[0].count(b"\n") == 1 + 4 * 221
    for rows in (1, 7, 220):
        monkeypatch.setattr(cli, "_SWEEP_SLICE_ROWS", rows)
        assert run() == whole


def test_sweep_rows_match_scalar_rate_gain(tmp_path):
    spec = small_spec(tmp_path / "out.csv", s_list=(0.0, 1.0, 5.0), r_min=-1.3,
                      r_max=1.3, r_steps=27)
    # the grid runs on numpy and rate_gain on math: the budget is exact, the
    # rates and entropies within PATH_ULPS and the gain within its scaled bound
    r_ok, n_mod, gain, info, base = grid_of(spec)
    assert gain.shape == (3, 23)
    for i, s in enumerate(sorted(spec.s_list)):
        for j, r in enumerate(r_ok.tolist()):
            point = rate_gain(ChannelParams(n=2, eta=0.8, s=s, n_eff=2.0), r)
            assert n_mod[j] == point.n_mod
            for field in ("i_mu", "i_zeta", "i_joint", "i_r", "rate"):
                assert paths_agree(getattr(point.info, field), getattr(info, field)[i, j]), field
            assert gains_agree(point.gain, gain[i, j], point.info.rate, base.rate[i])


def test_csv_lines_match_the_rows_value_by_value(tmp_path):
    # each line is its grid point's _gain_grid values through _fmt: -0.0
    # prints as 0, small and large values in e-notation, on grids with
    # skipped points, on r = 0 and on a grid whose every point is skipped
    path = tmp_path / "out.csv"
    saw_exponent = False
    for n in (1, 2, 5):
        for n_eff in (1e-3, 2.0, 1e4):
            lim = r_limit(n_eff)
            for r_min, r_max, steps, k in ((-1.5 * lim, 1.5 * lim, 13, 9), (0.0, 0.0, 2, 2),
                                           (-3.0 * lim, 3.0 * lim, 2, 0)):
                spec = small_spec(path, n=n, n_eff=n_eff, s_list=(2.0, -0.0, -3.5, 2.0, 0.0),
                                  r_min=r_min, r_max=r_max, r_steps=steps)
                lines = csv_lines(spec)
                r_ok, n_mod, gain, info, _ = grid_of(spec)
                assert gain.shape == (5, k)
                assert lines == [
                    ",".join(cli._fmt(v) for v in (
                        s, r_ok[j], n_mod[j], info.i_mu[i, j], info.i_zeta[i, j],
                        info.i_joint[i, j], info.i_r[i, j], info.rate[i, j], gain[i, j]))
                    for i, s in enumerate(sorted(spec.s_list)) for j in range(k)]
                saw_exponent = saw_exponent or "e" in "".join(lines)
    assert saw_exponent


def test_sweep_summary_format(tmp_path):
    path = tmp_path / "out.csv"
    buf = io.StringIO()
    sweep(small_spec(path), stream=buf)
    out = buf.getvalue().splitlines()
    assert out[0] == "sweep: n=2 eta=0.8 N_eff=2 r in [-0.5, 0.5] x 5"
    assert out[1].startswith("  s=0: rows=5 skipped=0 baseline_rate=1.37851162325")
    assert out[2].startswith("  s=2: rows=5 skipped=0")
    assert out[-1] == f"wrote {path}"


# ---------------------------------------------------------------- optimize

def test_optimize_report_is_sorted_and_consistent():
    buf = io.StringIO()
    report = optimize(2, 0.8, 2.0, (5.0, 1.0), stream=buf)
    assert [entry[0] for entry in report] == [1.0, 5.0]
    for s, r_star, gain_star, rate_star in report:
        params = ChannelParams(n=2, eta=0.8, s=s, n_eff=2.0)
        want = optimize_r(params)
        assert (r_star, gain_star, rate_star) == (want.r, want.gain, want.info.rate)
        assert rate_star == mutual_information(params, r_star).rate
    assert buf.getvalue().splitlines()[0] == "s,r_star,gain_star,rate_star"
    assert len(buf.getvalue().splitlines()) == 3


def test_optimize_evaluates_each_row_once(monkeypatch):
    # optimize_r's GainPoint carries the rate at r_star, so a row costs
    # rate_gain's two closed-form calls, baseline and peak; at s = 0 the peak
    # is r = 0, whose point is the search's own
    exact, calls = information._closed_form, []

    def counted(*point):
        calls.append(point)
        return exact(*point)

    patch_everywhere(monkeypatch, exact, counted)
    optimize(2, 0.8, 2.0, (1.0, 2.0, 5.0), stream=io.StringIO())
    assert len(calls) == 2 * 3
    calls.clear()
    (row,) = optimize(2, 0.8, 2.0, (0.0,), stream=io.StringIO())
    assert len(calls) == 2
    params = ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0)
    assert row == (0.0, 0.0, 0.0, mutual_information(params, 0.0).rate)


def test_optimize_reports_r_zero_where_the_budget_admits_it_alone(capsys):
    # N_eff = 1.5e-9 is at least N_MIN, so r = 0 is admissible, and r_limit is 0
    assert main(["optimize", "--neff", "1.5e-9", "--s", "0,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "s,r_star,gain_star,rate_star"
    assert [line.split(",")[1:3] for line in lines[1:]] == [["0", "0"], ["0", "0"]]


def test_optimize_refuses_an_empty_s_list():
    with pytest.raises(InvalidSpec, match="at least one memory value"):
        optimize(2, 0.8, 2.0, (), stream=io.StringIO())


def test_optimize_finds_nothing_at_unit_transmissivity():
    report = optimize(2, 1.0, 2.0, (0.0, 2.0), stream=io.StringIO())
    for _, r_star, gain_star, rate_star in report:
        assert abs(r_star) <= 1e-4
        assert abs(gain_star) <= 1e-9
        assert rate_star == pytest.approx(math.log2(3.0), abs=1e-9)


# ---------------------------------------------------------------- verify

# verify's default spot point
_SPOT = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)


def _main_output(argv):
    """main(argv)'s exit code and what it prints to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_verify_with_no_level_is_verify_full():
    # `full` is the one level: `lossymem verify`, `lossymem verify full` and
    # the library call print the same 14 PASS lines and the same summary
    t0 = time.perf_counter()
    buf = io.StringIO()
    assert verify("full", stream=buf) is True
    assert time.perf_counter() - t0 < 10.0
    assert _main_output(["verify"]) == _main_output(["verify", "full"]) == (0, buf.getvalue())
    lines = buf.getvalue().splitlines()
    assert lines[-1] == "verify full: 14 checks, 14 passed, 0 failed"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert len(lines) == 15


def test_verify_full_is_deterministic():
    buf_a, buf_b = io.StringIO(), io.StringIO()
    assert verify("full", seed=42, stream=buf_a) is True
    assert verify("full", seed=42, stream=buf_b) is True
    assert buf_a.getvalue() == buf_b.getvalue()
    assert buf_a.getvalue().splitlines()[-1] == "verify full: 14 checks, 14 passed, 0 failed"


def test_every_check_returns_a_bool_and_a_str():
    # numpy bools and floats would not serialise to JSON as they are
    for name, check in cli._checks(12345, 100000, _SPOT):
        ok, detail = check()
        assert type(ok) is bool, name
        assert type(detail) is str, name


@pytest.mark.parametrize("seed", [23, 50, 51, 2830])
def test_verify_full_passes_where_estimated_bounds_failed(seed):
    # a max-deviation bound failed sampler-moments at 23, and 3 jackknife
    # errors failed monte-carlo-memory-point at 50 and a Monte Carlo check of
    # the memoryless anchor at 51; at 2830 the false law i_r <= i_mu failed a
    # random point by 0.165 bits
    buf = io.StringIO()
    assert verify("full", seed=seed, stream=buf) is True, buf.getvalue()


def test_sampler_moments_catches_a_three_percent_sampler_fault(monkeypatch):
    # noise deviations 3 % too large: the gross faults the sampled checks
    # are for; fine faults are sampler-map's to catch
    exact = oracle._mixing_map
    patch_everywhere(monkeypatch, exact, noise_rows_scaled(1.03)(exact))
    buf = io.StringIO()
    assert verify("full", stream=buf) is False
    assert any(line.startswith("FAIL sampler-moments lr_stat=")
               for line in buf.getvalue().splitlines())


def test_sampler_map_catches_a_fine_sampling_factor_fault(monkeypatch):
    # noise deviations 1e-9 too large read about 1.2e-9, far above the 64 eps
    # bound, and no sampled check could resolve them
    assert cli._check_sampler_map()[0] is True
    exact = oracle._mixing_map
    patch_everywhere(monkeypatch, exact, noise_rows_scaled(1 + 1e-9)(exact))
    ok, detail = cli._check_sampler_map()
    assert ok is False
    assert detail.startswith("max_rel_dev=")


def test_kernel_determinant_catches_a_broken_inverse_identity(monkeypatch):
    # A(r + 1e-3) keeps det A = 2^{2n}, so only the identity
    # A(r) A(-r) / 4 = I, which the oracles invert the kernels by, sees it
    exact = cli.build_input_kernel
    monkeypatch.setattr(cli, "build_input_kernel", lambda n, r: exact(n, r + 1e-3))
    buf = io.StringIO()
    assert verify("full", stream=buf) is False
    assert any(line.startswith("FAIL input-kernel-determinant max_dev=")
               for line in buf.getvalue().splitlines())


@pytest.mark.parametrize("fault", list(MOMENT_GRID_FAULTS))
def test_moment_oracle_grid_catches_the_catalogued_faults(monkeypatch, fault):
    assert cli._check_moment_oracle_grid()[0] is True
    exact, make_fault = MOMENT_GRID_FAULTS[fault]
    patch_everywhere(monkeypatch, exact, make_fault(exact))
    ok, detail = cli._check_moment_oracle_grid()
    assert ok is False
    assert detail.startswith("max_dev=") and detail.endswith(" points=1512")


def test_verify_rejects_unknown_level():
    for level in ("bogus", "quick"):
        with pytest.raises(InvalidSpec, match="level must be 'full'"):
            verify(level, stream=io.StringIO())


def test_verify_rejects_bad_seed_and_samples(capsys):
    # the Monte Carlo checks seed with seed .. seed + 2, so 2**64 - 3 is the top
    for argv in (["verify", "--seed", "-1"], ["verify", "full", "--samples", "10"],
                 ["verify", "full", "--seed", str(2 ** 64 - 1)],
                 ["verify", "full", "--seed", str(2 ** 64 - 2)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
    assert main(["verify", "--seed", str(2 ** 64 - 3)]) == 0
    # a bool is an int to isinstance; neither seed nor samples may be one
    for kwargs in ({"seed": True}, {"seed": False}, {"samples": True}):
        with pytest.raises(InvalidSpec):
            verify("full", stream=io.StringIO(), **kwargs)


def test_verify_refuses_what_it_cannot_run(tmp_path, capsys, monkeypatch):
    # a budget below N_MIN admits no r, not even 0, spot-point-oracle's
    # (4n)^2 covariances at n = 10^6 would take terabytes, and past
    # n x N_eff = VERIFY_MAX_N_NEFF they can fail the pivot test: each exits
    # 2 before the first check line. The bounds themselves are tested with an
    # empty registry, so that the admitted edge runs no check.
    for argv in (["verify", "--neff", "1e-10"], ["verify", "full", "--n", "1000000"],
                 ["verify", "--n", "1024", "--neff", "1e12"], ["verify", "--neff", "1e15"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
    assert main(["sweep", "--neff", "1e-10", "--out", str(tmp_path / "x.csv")]) == 2
    assert not (tmp_path / "x.csv").exists()
    monkeypatch.setattr(cli, "_checks", lambda seed, samples, spot: [])
    with pytest.raises(InvalidSpec, match="VERIFY_MAX_N"):
        verify(n=cli.VERIFY_MAX_N + 1, stream=io.StringIO())
    assert verify(n=cli.VERIFY_MAX_N, stream=io.StringIO()) is True
    with pytest.raises(InvalidSpec, match="VERIFY_MAX_N_NEFF"):
        verify(n_eff=0.5e14 * (1 + 1e-15), stream=io.StringIO())
    assert verify(n_eff=0.5e14, stream=io.StringIO()) is True


@pytest.mark.parametrize("n, n_eff", [(32, 1e8), (2, 1e10), (128, 1e10)])
def test_spot_point_allows_the_moment_oracles_round_off(n, n_eff):
    # the oracle's log-determinants lose about n eps N_eff bits, which a flat
    # 1e-7 bound failed here; at (2, 1e10) the deviation is 3.2 n eps N_eff
    ok, detail = cli._check_spot_point(ChannelParams(n=n, eta=0.8, s=1.0, n_eff=n_eff))
    assert ok is True, detail


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_check_memoryless_anchor", lambda: (False, "dev=1.000e+00"))
    buf = io.StringIO()
    assert verify("full", stream=buf) is False
    lines = buf.getvalue().splitlines()
    assert "FAIL memoryless-anchor dev=1.000e+00" in lines
    assert lines[-1] == "verify full: 14 checks, 13 passed, 1 failed"
    assert main(["verify"]) == 1
    assert "FAIL memoryless-anchor" in capsys.readouterr().out


def _registry_names():
    return [name for name, _ in cli._checks(42, 100000, _SPOT)]


# a check without arguments and a sampled one
@pytest.mark.parametrize("function, name", [
    ("_check_kernel_determinant", "input-kernel-determinant"),
    ("_check_mc_memory_point", "monte-carlo-memory-point"),
], ids=["input-kernel-determinant", "monte-carlo-memory-point"])
def test_verify_reports_a_raising_check(monkeypatch, capsys, function, name):
    def raising(*args):
        raise NotPositiveDefinite("pivot 0 at index 3")

    monkeypatch.setattr(cli, function, raising)
    buf = io.StringIO()
    assert verify("full", seed=42, stream=buf) is False
    lines = buf.getvalue().splitlines()
    assert lines[_registry_names().index(name)] == (
        f"FAIL {name} raised NotPositiveDefinite: pivot 0 at index 3")
    assert lines[-1] == "verify full: 14 checks, 13 passed, 1 failed"
    assert main(["verify", "--seed", "42"]) == 1
    assert f"FAIL {name} raised NotPositiveDefinite" in capsys.readouterr().out


@pytest.mark.parametrize("function, name", [
    ("_check_mc_repeatability", "monte-carlo-repeatability"),
    ("_check_mc_memory_point", "monte-carlo-memory-point"),
    ("_check_sampler_moments", "sampler-moments"),  # reads the memory point's draw
])
def test_verify_re_raises_another_error_in_the_caller(monkeypatch, function, name):
    def broken(*args):
        raise RuntimeError(f"{name} broke")

    monkeypatch.setattr(cli, function, broken)
    buf = io.StringIO()
    with pytest.raises(RuntimeError, match=f"^{name} broke$"):
        verify("full", seed=42, samples=2000, stream=buf)
    # the checks before it in the registry print, the summary does not
    names = _registry_names()
    assert [line.split()[1] for line in buf.getvalue().splitlines()] == names[:names.index(name)]


def test_verify_runs_each_check_on_the_calling_thread_and_prints_as_it_returns(monkeypatch):
    buf = io.StringIO()
    seen = {}
    memory_point = cli._check_mc_memory_point

    def recording(samples, seed):
        seen["thread"] = threading.get_ident()
        seen["text"] = buf.getvalue()
        return memory_point(samples, seed)

    monkeypatch.setattr(cli, "_check_mc_memory_point", recording)
    assert verify("full", seed=42, samples=2000, stream=buf) is True
    assert seen["thread"] == threading.get_ident()
    before = _registry_names().index("monte-carlo-memory-point")
    assert seen["text"] == "".join(buf.getvalue().splitlines(keepends=True)[:before])


def test_verify_full_draws_four_covariances_whatever_the_sample_count(monkeypatch):
    # the sampled checks draw their normals' covariance C from its Wishart
    # law, whatever the sample count: 8n chi^2 and 8n (8n - 1) / 2 normal
    # values per C, 136 at n = 2. monte-carlo-memory-point and
    # sampler-moments each draw the shared seed's C, and
    # monte-carlo-repeatability draws its own twice
    exact = np.random.Generator

    def count(samples):
        drawn = []

        class Counting:
            def __init__(self, bit_generator):
                self.generator = exact(bit_generator)

            def chisquare(self, df):
                values = self.generator.chisquare(df)
                drawn.append(values.size)
                return values

            def standard_normal(self, size):
                values = self.generator.standard_normal(size)
                drawn.append(values.size)
                return values

        monkeypatch.setattr(np.random, "Generator", Counting)
        assert verify("full", seed=42, samples=samples, stream=io.StringIO()) is True
        return sum(drawn)

    assert count(40000) == count(400000) == 4 * 136


# ---------------------------------------------------------------- main

def test_main_sweep_roundtrip(tmp_path):
    path = tmp_path / "cli.csv"
    code = main(["sweep", "--out", str(path), "--s", "0,1", "--r-min", "-0.5",
                 "--r-max", "0.5", "--r-steps", "5"])
    assert code == 0
    assert path.read_text(encoding="ascii").splitlines()[0] == HEADER


def test_main_rejects_invalid_parameters(tmp_path, capsys):
    path = str(tmp_path / "x.csv")
    assert main(["sweep", "--eta", "1.5", "--out", path]) == 2
    assert main(["sweep", "--r-min", "2.0", "--r-max", "3.0", "--out", path]) == 2
    assert main(["verify", "--eta", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_memory_past_float_range_is_rejected(tmp_path, capsys):
    # past S_MAX (about 354.20) the kernels' largest entry, 2e^{2|s|}, passes
    # float max / 2
    for s in (400.0, -400.0, math.nextafter(S_MAX, math.inf)):
        with pytest.raises(InvalidSpec):
            ChannelParams(n=2, eta=0.8, s=s, n_eff=2.0)
    assert main(["optimize", "--s", "400"]) == 2
    assert main(["sweep", "--s", "400", "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    report = optimize(2, 0.8, 2.0, (-S_MAX, -354.0, 354.0, S_MAX), stream=io.StringIO())
    for (_, r_neg, gain_neg, _), (_, r_pos, gain_pos, _) in zip(report[:2], reversed(report)):
        assert r_neg == -r_pos < 0.0
        assert gain_neg == gain_pos > 0.0


def test_photon_budget_past_float_range_is_rejected(tmp_path, capsys):
    # pi N and 2 eta N overflow a float for N_eff > N_EFF_MAX (float max / 4)
    for n_eff in (1e308, math.nextafter(N_EFF_MAX, math.inf)):
        with pytest.raises(InvalidSpec):
            ChannelParams(n=2, eta=0.8, s=1.0, n_eff=n_eff)
    assert main(["optimize", "--neff", "1e308"]) == 2
    assert main(["sweep", "--neff", "1e308", "--out", str(tmp_path / "x.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    for eta in (1e-3, 0.5, 1.0):
        for s in (0.0, 5.0, -5.0, 300.0, S_MAX):
            params = ChannelParams(n=2, eta=eta, s=s, n_eff=N_EFF_MAX)
            lim = r_limit(N_EFF_MAX)
            for r in (0.0, 0.99 * lim, -0.99 * lim):
                assert math.isfinite(mutual_information(params, r).rate)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                optimize_r(params)


def test_huge_r_is_out_of_budget(tmp_path, capsys):
    # sinh(r)^2 overflows a float past |r| of about 355
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    for r in (1000.0, -1000.0, 400.0, math.inf):
        with pytest.raises(PhotonBudgetExceeded):
            mutual_information(params, r)
    path = tmp_path / "x.csv"
    assert main(["sweep", "--r-min", "-1000", "--r-max", "1000", "--r-steps", "5",
                 "--out", str(path)]) == 0
    assert "total rows=4 skipped=16 grid=20" in capsys.readouterr().out
    assert [line.split(",")[1] for line in path.read_text().splitlines()[1:]] == ["0"] * 4


def test_main_reports_numerical_failure(tmp_path, capsys):
    path = str(tmp_path / "x.csv")
    code = main(["sweep", "--eta", "0", "--out", path, "--r-steps", "3",
                 "--r-min", "-0.5", "--r-max", "0.5"])
    assert code == 3
    assert "numerical failure:" in capsys.readouterr().err
    # the grid is evaluated before the CSV is opened
    assert not os.path.exists(path)


def test_degenerate_baseline_refusal_does_not_depend_on_block_length(capsys):
    # at eta = 2e-13 the baseline rate is 5.8e-13 bits per use at every n,
    # while the total over n uses passes 1e-12 from n = 2 on
    errors = []
    for n in ("1", "2", "32"):
        assert main(["optimize", "--eta", "2e-13", "--s", "1", "--n", n]) == 3
        errors.append(capsys.readouterr().err)
    assert errors == [errors[0]] * 3
    assert errors[0].startswith("numerical failure: baseline rate ")
    assert errors[0].endswith(" bits per use is ~0 (eta too small)\n")


def test_main_rejects_unwritable_output():
    code = main(["sweep", "--out", "/nonexistent-dir/x.csv", "--s", "0",
                 "--r-min", "0", "--r-max", "0", "--r-steps", "2"])
    assert code == 2


def test_main_verify_quick_exit_code(capsys):
    # full is verify's one level: argparse refuses any other with exit 2
    # before a check runs
    with pytest.raises(SystemExit) as exc:
        main(["verify", "quick"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'quick'" in captured.err
    assert captured.out == ""


def test_parser_reads_negative_values_in_any_float_form(tmp_path):
    assert build_parser().parse_args(["optimize", "--s", "-2,1"]).s == (-2.0, 1.0)
    args = build_parser().parse_args(["sweep", "--r-min", "-1e-1", "--s", "-.5"])
    assert (args.r_min, args.s) == (-0.1, (-0.5,))
    assert main(["sweep", "--s", "-1,2", "--r-min", "-1e-1",
                 "--out", str(tmp_path / "x.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep", "--bogus"])
    assert exc.value.code == 2


def test_parser_refuses_an_empty_memory_value(capsys):
    # "1,,2" holds an empty part, which float() refuses
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--s", "1,,2"])
    assert exc.value.code == 2
    assert "expected a comma list of reals, got '1,,2'" in capsys.readouterr().err


def test_parser_rejects_unknown_level():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- dependencies

_OPTIMIZE_ARGS = ["optimize", "--n", "32", "--neff", "20", "--s", "1,2,5"]


def test_import_needs_numpy_only(capsys):
    # in a fresh process: the package and its CLI import every module and
    # neither scipy nor numpy, and optimize, on math alone, loads no numpy;
    # its bytes are those of a run in this process, where numpy is loaded
    src = os.path.dirname(os.path.dirname(lossymem.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, lossymem, lossymem.cli\n"
            "print(*(m for m in ('numpy', 'scipy') if m in sys.modules), file=sys.stderr)\n"
            "print(*(m for m in sys.modules if m.startswith('lossymem.')), file=sys.stderr)\n"
            f"code = lossymem.cli.main({_OPTIMIZE_ARGS!r})\n"
            "print(code, 'numpy' in sys.modules, file=sys.stderr)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    loaded, modules, after = out.stderr.splitlines()
    assert loaded == ""
    assert {f"lossymem.{name}" for name in ("channel_model", "information", "matrix_core",
                                            "oracle", "cli")} <= set(modules.split())
    assert after == "0 False"
    assert "numpy" in sys.modules
    assert main(_OPTIMIZE_ARGS) == 0
    assert out.stdout == capsys.readouterr().out


def test_all_exports_resolve():
    for name in lossymem.__all__:
        assert hasattr(lossymem, name), name


def test_benchmark_per_layer_names_name_package_functions():
    # each <module>.<function>.<statistic> metric of BENCHMARK.json is
    # recorded by tracing lossymem.<module>.<function>; a function the
    # package no longer has drops the metric from every traced run
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        names = [entry["name"] for entry in json.load(handle)["per_layer"]]
    layered = [name.split(".") for name in names if name.count(".") == 2]
    assert layered
    for module, function, _ in layered:
        home = importlib.import_module(f"lossymem.{module}")
        assert callable(getattr(home, function, None)), f"{module}.{function}"
