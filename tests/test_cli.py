"""Sweep, optimize, and verify entry points plus exit-code mapping."""
import io
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

import lossymem
from lossymem import cli
from lossymem.cli import SweepSpec, build_parser, main, optimize, sweep, verify
from lossymem.errors import InvalidSpec, NotPositiveDefinite, PhotonBudgetExceeded
from lossymem.information import mutual_information, optimize_r, r_limit, rate_gain
from lossymem.channel_model import N_EFF_MAX, S_MAX, ChannelParams

HEADER = "s,r,N,I_mu,I_zeta,I_joint,I_r,rate,gain"


def small_spec(path, **overrides):
    fields = dict(n=2, eta=0.8, n_eff=2.0, s_list=(0.0, 2.0), r_min=-0.5,
                  r_max=0.5, r_steps=5, output_path=str(path))
    fields.update(overrides)
    return SweepSpec(**fields)


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


# ---------------------------------------------------------------- sweep

def test_sweep_rows_and_csv(tmp_path):
    path = tmp_path / "out.csv"
    rows = sweep(small_spec(path), stream=io.StringIO())

    assert len(rows) == 10
    assert [row.s for row in rows] == [0.0] * 5 + [2.0] * 5
    for chunk in (rows[:5], rows[5:]):
        r_values = [row.r for row in chunk]
        assert r_values == sorted(r_values)
        mid = chunk[2]
        assert mid.r == 0.0
        assert mid.gain == 0.0

    raw = path.read_text(encoding="ascii")
    assert raw.endswith("\n") and not raw.endswith("\n\n")
    assert "\r" not in raw and " " not in raw
    lines = raw.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 11
    baseline = lines[3].split(",")
    assert baseline[1] == "0"
    assert baseline[-1] == "0"
    parsed = [float(v) for v in lines[1].split(",")]
    row = rows[0]
    for got, want in zip(parsed, (row.s, row.r, row.n_mod, row.i_mu, row.i_zeta,
                                  row.i_joint, row.i_r, row.rate, row.gain)):
        assert got == pytest.approx(want, rel=1e-11)


def test_sweep_csv_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep(small_spec(a), stream=io.StringIO())
    sweep(small_spec(b), stream=io.StringIO())
    assert a.read_bytes() == b.read_bytes()


def test_sweep_skips_points_outside_budget(tmp_path):
    path = tmp_path / "out.csv"
    spec = small_spec(path, s_list=(0.0,), r_min=-1.3, r_max=1.3, r_steps=9)
    assert r_limit(2.0) < 1.3
    buf = io.StringIO()
    rows = sweep(spec, stream=buf)
    assert len(rows) == 7
    assert "rows=7 skipped=2" in buf.getvalue()
    assert "total rows=7 skipped=2 grid=9" in buf.getvalue()


def test_sweep_degenerate_grid(tmp_path):
    path = tmp_path / "out.csv"
    spec = small_spec(path, s_list=(1.0,), r_min=0.0, r_max=0.0, r_steps=2)
    rows = sweep(spec, stream=io.StringIO())
    assert len(rows) == 2
    assert rows[0] == rows[1]
    assert rows[0].gain == 0.0


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


def test_sweep_rows_match_scalar_rate_gain(tmp_path):
    spec = small_spec(tmp_path / "out.csv", s_list=(0.0, 1.0, 5.0), r_min=-1.3,
                      r_max=1.3, r_steps=27)
    rows = sweep(spec, stream=io.StringIO())
    assert len(rows) == 3 * 23
    for row in rows:
        point = rate_gain(ChannelParams(n=2, eta=0.8, s=row.s, n_eff=2.0), row.r)
        for got, want in ((row.n_mod, point.n_mod), (row.i_mu, point.info.i_mu),
                          (row.i_zeta, point.info.i_zeta), (row.i_joint, point.info.i_joint),
                          (row.i_r, point.info.i_r), (row.rate, point.info.rate),
                          (row.gain, point.gain)):
            assert abs(got - want) <= 1e-14 * abs(want)


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
        want_r, want_gain = optimize_r(ChannelParams(n=2, eta=0.8, s=s, n_eff=2.0))
        assert r_star == want_r
        assert gain_star == want_gain
        params = ChannelParams(n=2, eta=0.8, s=s, n_eff=2.0)
        assert rate_star == pytest.approx(mutual_information(params, r_star).rate)
    assert buf.getvalue().splitlines()[0] == "s,r_star,gain_star,rate_star"
    assert len(buf.getvalue().splitlines()) == 3


def test_optimize_finds_nothing_at_unit_transmissivity():
    report = optimize(2, 1.0, 2.0, (0.0, 2.0), stream=io.StringIO())
    for _, r_star, gain_star, rate_star in report:
        assert abs(r_star) <= 1e-4
        assert abs(gain_star) <= 1e-9
        assert rate_star == pytest.approx(math.log2(3.0), abs=1e-9)


# ---------------------------------------------------------------- verify

def test_verify_quick_passes():
    t0 = time.perf_counter()
    buf = io.StringIO()
    assert verify("quick", stream=buf) is True
    assert time.perf_counter() - t0 < 10.0
    lines = buf.getvalue().splitlines()
    assert lines[-1] == "verify quick: 14 checks, 14 passed, 0 failed"
    assert all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_full_is_deterministic():
    buf_a, buf_b = io.StringIO(), io.StringIO()
    assert verify("full", seed=42, stream=buf_a) is True
    assert verify("full", seed=42, stream=buf_b) is True
    assert buf_a.getvalue() == buf_b.getvalue()
    assert buf_a.getvalue().splitlines()[-1] == "verify full: 21 checks, 21 passed, 0 failed"


def test_verify_rejects_unknown_level():
    with pytest.raises(InvalidSpec):
        verify("bogus", stream=io.StringIO())


def test_verify_rejects_bad_seed_and_samples(capsys):
    # the Monte Carlo checks seed with seed .. seed + 3, so 2**64 - 4 is the top
    for argv in (["verify", "--seed", "-1"], ["verify", "full", "--samples", "10"],
                 ["verify", "full", "--seed", str(2 ** 64 - 1)],
                 ["verify", "full", "--seed", str(2 ** 64 - 3)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
    assert main(["verify", "--seed", str(2 ** 64 - 4)]) == 0


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_check_memoryless_anchor", lambda: (False, "dev=1.000e+00"))
    buf = io.StringIO()
    assert verify("quick", stream=buf) is False
    lines = buf.getvalue().splitlines()
    assert "FAIL memoryless-anchor dev=1.000e+00" in lines
    assert lines[-1] == "verify quick: 14 checks, 13 passed, 1 failed"
    assert main(["verify"]) == 1
    assert "FAIL memoryless-anchor" in capsys.readouterr().out


def test_verify_reports_a_raising_check(monkeypatch, capsys):
    def raising():
        raise NotPositiveDefinite("pivot 0 at index 3")

    monkeypatch.setattr(cli, "_check_kernel_determinant", raising)
    buf = io.StringIO()
    assert verify("quick", stream=buf) is False
    lines = buf.getvalue().splitlines()
    assert ("FAIL input-kernel-determinant raised NotPositiveDefinite: "
            "pivot 0 at index 3") in lines
    assert lines[-1] == "verify quick: 14 checks, 13 passed, 1 failed"
    assert main(["verify"]) == 1
    assert "raised NotPositiveDefinite" in capsys.readouterr().out


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
    # e^{2|s|} overflows a float for |s| > S_MAX (about 354.89)
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


def test_main_rejects_unwritable_output():
    code = main(["sweep", "--out", "/nonexistent-dir/x.csv", "--s", "0",
                 "--r-min", "0", "--r-max", "0", "--r-steps", "2"])
    assert code == 2


def test_main_verify_quick_exit_code():
    assert main(["verify"]) == 0


def test_parser_rejects_unknown_level():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- dependencies

def test_import_needs_numpy_only():
    src = os.path.dirname(os.path.dirname(lossymem.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, lossymem, lossymem.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_all_exports_resolve():
    for name in lossymem.__all__:
        assert hasattr(lossymem, name), name
