"""Span tracing of lossymem's public functions, from outside the package.

`Tracer.install` rebinds each traced function, in every lossymem module
that holds it, to a wrapper that records a span (name, start, end, parent).
Spans stay in memory until `write`. `layer_stats` turns them into call
counts and self times: a span's self time is its duration minus the time
its child spans cover. Nothing in the package itself is changed, so the
untraced passes run the code exactly as users do.
"""
import functools
import sys
import time
from collections import Counter, defaultdict

# module -> public functions recorded; a name a later version removes is
# skipped and listed in Tracer.missing.
TRACED = {
    "matrix_core": ("spd_factor",),
    "channel_model": ("assemble_model",),
    "information": ("mutual_information", "output_entropy", "joint_entropy",
                    "rate_gain", "optimize_r"),
    "oracle": ("sample_joint", "monte_carlo_mi", "quadrature_entropy_n1",
               "gaussian_mi_from_moments"),
    "cli": ("sweep", "optimize", "verify"),
}


class Tracer:
    """Records spans of the TRACED functions while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span index or -1)
        self.names = []  # traced names found in this version of the package
        self.missing = []  # traced names absent from it
        self._stack = []
        self._bindings = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "lossymem" or key.startswith("lossymem."))]
        self.names, self.missing = [], []
        for short, functions in TRACED.items():
            home = sys.modules.get(f"lossymem.{short}")
            for fn_name in functions:
                name = f"{short}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                self.names.append(name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bindings.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def write(self, path, origin):
        """Write the spans as CSV, times in seconds from `origin`."""
        with open(path, "w", encoding="ascii") as handle:
            handle.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


def layer_stats(spans):
    """Per-name call counts and self times (s), plus the number of
    information.rate_gain calls made inside information.optimize_r."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = Counter()
    self_s = defaultdict(float)
    in_optimize = [False] * len(spans)
    evals_in_optimize = 0
    for index, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[index]
        if parent >= 0:
            in_optimize[index] = (in_optimize[parent]
                                  or spans[parent][0] == "information.optimize_r")
        if name == "information.rate_gain" and in_optimize[index]:
            evals_in_optimize += 1
    return calls, self_s, evals_in_optimize
