"""`np`: numpy, imported at the first attribute read rather than at import.

The scalar paths (`optimize`, `mutual_information`, `rate_gain`) run on
`math` and never read it, so `import lossymem` and `lossymem optimize` start
without numpy; an array path loads it at its first `np.` call.
"""
import importlib


class _LazyNumpy:
    def __getattr__(self, name):
        value = getattr(importlib.import_module("numpy"), name)
        # cached on the instance, so later reads skip __getattr__
        setattr(self, name, value)
        return value


np = _LazyNumpy()
