"""The CLI's printed bytes against committed golden files.

Each invocation runs through main() in an empty working directory and must
exit with its code, print its `<name>.out` to stdout and nothing to stderr,
and, for a sweep, write its `<name>.csv`. A sweep writes the default
`sweep.csv`, the one file name its summary's `wrote` line prints. The CSVs
go in whole, so a mismatch names its first differing line.

verify is not here: its dev= values are round-off of LAPACK factorizations
and may differ between machines (test_cli checks that `verify` and
`verify full` print the same bytes in one run).

After a deliberate change of output, regenerate the files with
`PYTHONPATH=src python3 tests/test_golden.py`, so that the diff shows every
changed line.
"""
import contextlib
import io
import os
import sys
import tempfile

import pytest

from lossymem.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# name: (argv, exit code)
INVOCATIONS = {
    "sweep-neff2": (["sweep"], 0),
    "sweep-neff20": (["sweep", "--neff", "20"], 0),
    "optimize": (["optimize"], 0),
}


def run(argv, workdir):
    """main(argv) in workdir: its exit code, stdout and stderr, and the bytes
    of the sweep.csv it wrote, or None."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    path = os.path.join(workdir, "sweep.csv")
    csv = None
    if os.path.exists(path):
        with open(path, "rb") as handle:
            csv = handle.read()
    return code, out.getvalue().encode("ascii"), err.getvalue(), csv


def golden(name, suffix):
    path = os.path.join(GOLDEN, name + suffix)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name", list(INVOCATIONS))
def test_cli_prints_the_golden_bytes(tmp_path, name):
    argv, exit_code = INVOCATIONS[name]
    code, out, err, csv = run(argv, tmp_path)
    assert (code, err) == (exit_code, "")
    assert out.splitlines(keepends=True) == golden(name, ".out").splitlines(keepends=True)
    expected = golden(name, ".csv")
    assert (csv is None) == (expected is None)
    if csv is not None:
        assert csv.splitlines(keepends=True) == expected.splitlines(keepends=True)


if __name__ == "__main__":
    for name, (argv, exit_code) in INVOCATIONS.items():
        with tempfile.TemporaryDirectory() as workdir:
            code, out, err, csv = run(argv, workdir)
        if (code, err) != (exit_code, ""):
            sys.exit(f"{name}: exit {code}, expected {exit_code}; stderr {err!r}")
        for suffix, data in ((".out", out), (".csv", csv)):
            if data is not None:
                with open(os.path.join(GOLDEN, name + suffix), "wb") as handle:
                    handle.write(data)
        print(f"wrote {name}")
