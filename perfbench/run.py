#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of lossymem.

Run from the root of a lossymem checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each run imports lossymem from the checkout's `src/`, runs one warm-up pass
and then timed passes of the workload until `--seconds` have passed, checks
every output against the independent reference in `reference.py`, and
prints one JSON object as its last line of standard output:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics (setup_s, pass_s, peak_rss_mb); `--trace 1` reports the
per-layer metrics from spans recorded around lossymem's public functions
(see spans.py). See README.md for the workloads and the metrics.
"""
import os

# Pin BLAS and OpenMP to one thread before numpy loads: on a 2-core machine
# OpenBLAS's default makes an n = 32 evaluation about 3x slower and its
# timings scatter with the load of the machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Inputs of one run: a list of pass inputs in a seed-chosen order, each
# used by one pass at most, so no cache can carry work from pass to pass.
# A run ends when its time is up or its list is used up.
PASS_INPUTS = 1024
ETA_RANGE = (0.3, 0.95)
SWEEP_S = (0.0, 1.0, 2.0, 5.0)
SWEEP_N_EFF = (2.0, 20.0)
SWEEP_R = (-1.1, 1.1, 221)
OPTIMIZE_N = 32
OPTIMIZE_N_EFF = 20.0
OPTIMIZE_S = (1.0, 2.0, 5.0)
VERIFY_SAMPLES = 100000
# Seeds of `verify full` whose seeded statistical checks (3-sigma Monte
# Carlo and sampler-moment bounds) pass; README.md says how they were chosen.
VERIFY_SEEDS = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 24, 25,
    26, 28, 29, 30, 31, 32, 33, 34, 35, 37, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 53, 54,
    55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 71, 72, 73, 74, 75, 76, 77,
    78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 93, 94, 95, 96, 97, 98, 99, 100,
    101, 102, 103, 104, 105, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118,
    119, 120, 121, 123, 124, 125, 126, 127, 128, 129, 130, 132, 134, 135, 136, 137, 138,
    139, 140, 141, 142, 143, 144, 145, 146, 147, 148, 149, 150, 151, 152, 153, 154, 155,
    156, 157, 158, 159, 161, 162, 163, 164, 166, 167, 168, 169, 170, 171, 172, 173, 174,
    175, 176, 177, 178, 179, 180, 181, 182, 183, 184, 185, 186, 187, 188, 189, 190, 191,
    194, 195, 196, 198, 199, 200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211,
    212, 213, 215, 216, 217, 218, 219, 220, 221, 222, 223, 224, 225, 226, 227, 228, 229,
    230, 231, 232, 233, 234, 235, 236, 238, 239, 240, 241, 242, 243, 245, 246, 247, 248,
    249, 250, 251, 252, 253, 254, 255, 256, 257, 258, 259, 260, 261, 262, 263, 264, 265,
    266, 267, 268, 269, 270, 271, 272, 274, 275, 276, 277, 278, 279, 280, 281, 282, 283,
    284, 285, 286, 287, 288, 289, 290, 291, 293, 294, 295, 296, 297, 299, 300, 301, 302,
    303, 304, 305, 306, 307, 308, 309, 310, 311, 312, 313, 314, 317, 318, 319, 320,
)

# Tolerances of the checks; README.md gives the reasons.
RATE_RTOL = 2e-8
GAIN_ATOL = 1e-8
OPT_GAIN_ATOL = 1e-7
CSV_RTOL = 1e-11

# Per-layer metrics from the traced passes: "calls" is calls per pass,
# "self_s" self time per pass and "self_us" self time per call.
LAYER_METRICS = (
    ("matrix_core.spd_factor", "calls"),
    ("matrix_core.spd_factor", "self_us"),
    ("channel_model.assemble_model", "calls"),
    ("channel_model.assemble_model", "self_us"),
    ("information.mutual_information", "calls"),
    ("information.mutual_information", "self_us"),
    ("information.output_entropy", "self_us"),
    ("information.joint_entropy", "self_us"),
    ("information.rate_gain", "calls"),
    ("oracle.sample_joint", "self_s"),
    ("oracle.monte_carlo_mi", "self_s"),
    ("oracle.quadrature_entropy_n1", "self_s"),
    ("oracle.gaussian_mi_from_moments", "calls"),
    ("oracle.gaussian_mi_from_moments", "self_us"),
    ("cli.sweep", "self_s"),
    ("cli.optimize", "self_s"),
    ("cli.verify", "self_s"),
)
LAYER_UNITS = {"calls": "count", "self_s": "s", "self_us": "us"}

MIN_PASSES = 3
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60


def import_lossymem():
    """Import lossymem from this checkout's src/, and nowhere else."""
    package = SRC / "lossymem"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lossymem package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lossymem
    import lossymem.cli
    if Path(lossymem.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported lossymem from {lossymem.__file__}, not {package}")
    return lossymem


def distinct_etas(seed, count):
    rng = random.Random(seed)
    etas = []
    seen = set()
    while len(etas) < count:
        eta = round(rng.uniform(*ETA_RANGE), 6)
        if eta not in seen:
            seen.add(eta)
            etas.append(eta)
    return etas


class Sweep:
    """The paper's gain grid at n = 2, both energy budgets, own eta per pass."""

    def __init__(self, lm, seed):
        self.cli = lm.cli
        self.inputs = distinct_etas(seed, PASS_INPUTS)

    def operations(self, eta, scratch):
        for n_eff in SWEEP_N_EFF:
            spec = self.cli.SweepSpec(
                n=2, eta=eta, n_eff=n_eff, s_list=SWEEP_S, r_min=SWEEP_R[0],
                r_max=SWEEP_R[1], r_steps=SWEEP_R[2],
                output_path=str(scratch / f"sweep-{n_eff:g}.csv"))
            yield (f"sweep eta={eta} N_eff={n_eff:g}",
                   lambda spec=spec: self._run(spec),
                   lambda text, spec=spec: check_sweep(spec, text))

    def _run(self, spec):
        stream = io.StringIO()
        self.cli.sweep(spec, stream=stream)
        return stream.getvalue()


class Optimize:
    """Best r at n = 32, N_eff = 20 for s in {1, 2, 5}, own eta per pass."""

    def __init__(self, lm, seed):
        self.cli = lm.cli
        self.inputs = distinct_etas(seed, PASS_INPUTS)

    def operations(self, eta, scratch):
        yield (f"optimize eta={eta}",
               lambda: self.cli.optimize(OPTIMIZE_N, eta, OPTIMIZE_N_EFF, OPTIMIZE_S,
                                         stream=io.StringIO()),
               lambda report: check_optimize(eta, report))


class Verify:
    """`verify full` with 1e5 samples, a seed per pass from VERIFY_SEEDS."""

    def __init__(self, lm, seed):
        self.cli = lm.cli
        self.inputs = random.Random(seed).sample(VERIFY_SEEDS, len(VERIFY_SEEDS))

    def operations(self, seed, scratch):
        yield (f"verify full seed={seed}", lambda: self._run(seed), lambda out: check_verify(*out))

    def _run(self, seed):
        stream = io.StringIO()
        ok = self.cli.verify("full", seed=seed, samples=VERIFY_SAMPLES, stream=stream)
        return ok, stream.getvalue()


WORKLOADS = {"sweep": Sweep, "optimize-n32": Optimize, "verify-full": Verify}


def check_sweep(spec, text):
    """Parse the CSV back and check each row against the reference."""
    problems = []
    lim = reference.r_limit(spec.n_eff)
    step = (spec.r_max - spec.r_min) / (spec.r_steps - 1)
    grid = [spec.r_min + k * step for k in range(spec.r_steps)]
    admissible = [r for r in grid if abs(r) <= lim]
    expected_skipped = len(spec.s_list) * (len(grid) - len(admissible))
    totals = [line for line in text.splitlines() if line.startswith("total rows=")]
    if len(totals) != 1:
        return [f"no single 'total rows=' line in the summary: {totals!r}"]
    fields = dict(part.split("=") for part in totals[0].split()[1:])
    if int(fields["skipped"]) != expected_skipped:
        problems.append(f"skipped={fields['skipped']}, expected {expected_skipped}")

    with open(spec.output_path, encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if lines[0] != "s,r,N,I_mu,I_zeta,I_joint,I_r,rate,gain":
        problems.append(f"CSV header {lines[0]!r}")
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    if len(rows) != len(spec.s_list) * len(admissible):
        problems.append(f"{len(rows)} CSV rows, expected {len(spec.s_list) * len(admissible)}")
    for s in spec.s_list:
        r_values = [row["r"] for row in rows if row["s"] == s]
        if (len(r_values) != len(admissible)
                or any(abs(a - b) > 1e-11 for a, b in zip(r_values, admissible))):
            problems.append(f"s={s:g}: the CSV's r values are not the admissible grid")
    for row in rows:
        s, r = row["s"], row["r"]
        where = f"s={s:g} r={r:g}"
        rate = reference.rate(spec.eta, s, spec.n_eff, r)
        gain = reference.gain(spec.eta, s, spec.n_eff, r)
        if not abs(row["rate"] - rate) <= RATE_RTOL * rate:
            problems.append(f"{where}: rate {row['rate']!r}, reference {rate!r}")
        if not abs(row["gain"] - gain) <= GAIN_ATOL:
            problems.append(f"{where}: gain {row['gain']!r}, reference {gain!r}")
        if not abs(row["I_r"] - spec.n * row["rate"]) <= CSV_RTOL * abs(row["I_r"]):
            problems.append(f"{where}: I_r {row['I_r']!r} is not n * rate")
        if not 0.0 <= row["I_r"] <= row["I_mu"]:
            problems.append(f"{where}: I_r {row['I_r']!r} outside [0, I_mu={row['I_mu']!r}]")
        if r == 0.0 and row["gain"] != 0.0:
            problems.append(f"{where}: gain {row['gain']!r} at r = 0")
    return problems


def check_optimize(eta, report):
    """Each gain_star is the reference's maximum; the peak grows with s."""
    problems = []
    if [entry[0] for entry in report] != sorted(OPTIMIZE_S):
        return [f"report rows for s={[entry[0] for entry in report]}"]
    for s, r_star, gain_star, rate_star in report:
        where = f"s={s:g}"
        grid_best, r_best, g_best = reference.max_gain(eta, s, OPTIMIZE_N_EFF)
        if not abs(gain_star - g_best) <= OPT_GAIN_ATOL:
            problems.append(f"{where}: gain_star {gain_star!r}, reference maximum "
                            f"{g_best!r} at r={r_best!r}")
        if not grid_best <= gain_star + OPT_GAIN_ATOL:
            problems.append(f"{where}: a grid point reaches {grid_best!r} > gain_star {gain_star!r}")
        g_at = reference.gain(eta, s, OPTIMIZE_N_EFF, r_star)
        if not abs(gain_star - g_at) <= OPT_GAIN_ATOL:
            problems.append(f"{where}: gain_star {gain_star!r}, reference {g_at!r} at r_star")
        rate = reference.rate(eta, s, OPTIMIZE_N_EFF, r_star)
        if not abs(rate_star - rate) <= RATE_RTOL * rate:
            problems.append(f"{where}: rate_star {rate_star!r}, reference {rate!r}")
    peaks = [entry[2] for entry in report]
    if not all(a < b for a, b in zip(peaks, peaks[1:])):
        problems.append(f"peak gain does not grow with s: {peaks!r}")
    return problems


def check_verify(ok, text):
    """Every check line reads PASS and verify returned True."""
    lines = text.splitlines()
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    problems = [f"check failed: {line}" for line in checks if not line.startswith("PASS ")]
    if not checks:
        problems.append("no check lines printed")
    if ok is not True:
        problems.append(f"verify returned {ok!r}")
    summary = f"verify full: {len(checks)} checks, {len(checks)} passed, 0 failed"
    if lines[-1:] != [summary]:
        problems.append(f"summary {lines[-1:]!r}, expected {summary!r}")
    return problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_pass(workload, pass_input, scratch, tally):
    """Run one pass; returns its wall time, not counting the checks."""
    gc.collect()
    elapsed = 0.0
    for label, operation, check in workload.operations(pass_input, scratch):
        tally.attempted += 1
        start = time.perf_counter()
        try:
            output = operation()
        except Exception:
            elapsed += time.perf_counter() - start
            tally.failed += 1
            print(f"perfbench: {label} raised", file=sys.stderr)
            traceback.print_exc()
            continue
        elapsed += time.perf_counter() - start
        try:
            problems = check(output)
        except Exception as exc:  # malformed output, e.g. a CSV that does not parse
            problems = [f"check raised {exc!r}"]
        tally.problems += [f"{label}: {problem}" for problem in problems]
    return elapsed


def child_command(args, *extra):
    return [sys.executable, *extra, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]


def run_child(command):
    """Run `command` in ROOT to its end; returns (wall seconds, stderr text)."""
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as child:
        # A blocking wait with a watchdog: Popen.wait(timeout) polls in
        # sleeps of up to 50 ms, which would round the setup time.
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, err = child.communicate()
        finally:
            watchdog.cancel()
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        raise SystemExit(f"perfbench: {command} exited with {child.returncode}:\n{err}")
    return elapsed, err


def measure_setup(args):
    """Median wall time of a fresh interpreter importing lossymem and
    building this workload's inputs."""
    return statistics.median(run_child(child_command(args))[0] for _ in range(SETUP_REPEATS))


def import_times(args):
    """Median import time (us) of lossymem, scipy and numpy in a fresh
    interpreter, read from `python -X importtime`.

    Each module's self time goes to the nearest of the three packages among
    the module and its importers, so the three parts add up to the whole
    `import lossymem` and none is counted twice.
    """
    samples = {"lossymem": [], "scipy": [], "numpy": []}
    for _ in range(IMPORT_REPEATS):
        _, err = run_child(child_command(args, "-X", "importtime"))
        totals = dict.fromkeys(samples, 0)
        owners = []  # owner package at each nesting level above the line
        # A module is printed after the modules it imports; reversed, every
        # line comes after its importer, which sits one level up.
        for line in reversed(err.splitlines()):
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            self_us, _, field = line[len("import time:"):].split("|")
            level = (len(field) - len(field.lstrip()) - 1) // 2
            package = field.strip().split(".")[0]
            del owners[level:]
            owner = package if package in totals else (owners[-1] if owners else None)
            owners.append(owner)
            if owner is not None:
                totals[owner] += int(self_us)
        for package, total in totals.items():
            samples[package].append(total)
    return {package: statistics.median(values) for package, values in samples.items()}


def environment(lm):
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    env = {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }
    if hasattr(lm, "backend_name"):
        env["backend"] = lm.backend_name()
    return env


def layer_metrics(tracer, untraced_times, traced_times, imports):
    """Per-layer metrics of the traced passes; a traced function this
    version of lossymem lacks gives no value."""
    calls, self_s, evals_in_optimize = spans.layer_stats(tracer.spans)
    passes = len(traced_times)
    metrics = {}
    for name, statistic in LAYER_METRICS:
        if name not in tracer.names:
            continue
        if statistic == "calls":
            value = calls[name] / passes
        elif statistic == "self_s":
            value = self_s[name] / passes
        else:
            value = 1e6 * self_s[name] / calls[name] if calls[name] else 0.0
        metrics[f"{name}.{statistic}"] = {"value": value, "unit": LAYER_UNITS[statistic]}
    if {"information.optimize_r", "information.rate_gain"} <= set(tracer.names):
        searches = calls["information.optimize_r"]
        metrics["information.optimize_r.evals_per_call"] = {
            "value": evals_in_optimize / searches if searches else 0.0, "unit": "count"}
    for package, micros in imports.items():
        metrics[f"import.{package}_us"] = {"value": micros, "unit": "us"}
    overhead = statistics.median(traced_times) - statistics.median(untraced_times)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import lossymem, build the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)

    lm = import_lossymem()
    workload = WORKLOADS[args.workload](lm, args.seed)
    if args.setup_only:
        return 0

    problems = reference.self_test()
    if problems:
        raise SystemExit("perfbench: reference self-test failed: " + "; ".join(problems))
    print(json.dumps({"env": environment(lm)}), flush=True)

    OUT.mkdir(exist_ok=True)
    tally = Tally()
    tracer = spans.Tracer()
    untraced_times, traced_times = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        scratch = Path(scratch)
        inputs = iter(workload.inputs)
        run_pass(workload, next(inputs), scratch, tally)  # warm-up
        origin = time.perf_counter()
        deadline = origin + args.seconds
        for index, pass_input in enumerate(inputs):
            # the traced run alternates untraced and traced passes, so the
            # difference of their medians is the tracing overhead
            traced = args.trace == 1 and index % 2 == 1
            if traced:
                tracer.install()
            try:
                elapsed = run_pass(workload, pass_input, scratch, tally)
            finally:
                tracer.uninstall()
            (traced_times if traced else untraced_times).append(elapsed)
            enough = len(untraced_times) >= MIN_PASSES and (
                not args.trace or len(traced_times) >= MIN_PASSES)
            if enough and time.perf_counter() >= deadline:
                break

    for problem in tally.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.trace:
        tracer.write(OUT / f"trace-{args.workload}.csv", origin)
        metrics = layer_metrics(tracer, untraced_times, traced_times, import_times(args))
    else:
        metrics = {
            "setup_s": {"value": measure_setup(args), "unit": "s"},
            "pass_s": {"value": statistics.median(untraced_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"untraced_pass_s": untraced_times, "traced_pass_s": traced_times,
                      "problems": len(tally.problems)}))
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
