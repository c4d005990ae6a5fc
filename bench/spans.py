"""Per-layer spans and kernel counts, taken from outside the program.

:class:`Tracer` wraps public functions of the ``pencillab`` modules and a
few numpy/scipy kernels.  Nothing under ``src/`` changes: each wrapper is
put in place of the original under every name that refers to it in a
loaded ``pencillab`` module (``kronecker`` imports ``numerical_rank`` by
name, ``numrange`` imports ``least_squares`` and ``minimize``), so calls
made through any of those names are counted.  Wrappers exist only while
the tracer is installed; the timed runs never install it.

A span records calls, total time and self time (total time minus the
time of the spans opened directly inside it).  Kernel counts are taken
only while a ``pencillab`` span is open, so the benchmark's own checks
are not counted.  A span or kernel whose function no longer exists is
listed in :attr:`Tracer.absent` and reported with zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

SPANS = (
    "kronecker.staircase_structure",
    "kronecker.is_singular",
    "kronecker.equivalence_transforms",
    "linalg.pencil_eigenvalues",
    "koszul.taylor_spectrum",
    "koszul.koszul_at",
    "koszul.spectrum_via_singularity",
    "koszul.spectrum_invertible_characterization",
    "koszul.condition_matrix",
    "numrange.conv_hull_membership",
    "numrange.isotropic_search",
    "numrange.isotropic_from_singular",
    "commuting.verify_necessity",
    "cli.analyze_pencil",
)

# (counter, module that the program calls it through, attribute)
KERNELS = (
    ("kernel.svd", "numpy.linalg", "svd"),
    ("kernel.lu", "scipy.linalg", "lu_factor"),
    ("kernel.lu", "numpy.linalg", "det"),
    ("kernel.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("kernel.qz", "scipy.linalg", "eigvals"),
    ("optimize.minimize", "scipy.optimize", "minimize"),
    ("optimize.least_squares", "scipy.optimize", "least_squares"),
)

CERTIFICATE_PATHS = {
    "kernel": "kernel",
    "kronecker-constructive": "constructive",
    "random-search": "search",
}


def _svd_ops(a) -> int:
    """m n min(m, n) summed over a (possibly stacked) matrix argument."""
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return batch * m * n * min(m, n)


def counter_names() -> list[str]:
    """Every per-layer metric name the tracer reports, in report order."""
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.total_s", f"{span}.self_s"]
    names += ["numrange.isotropic_search.found"]
    names += [f"numrange.certificate_path.{p}" for p in CERTIFICATE_PATHS.values()]
    names += sorted({f"{c}.calls" for c, _, _ in KERNELS}) + ["kernel.svd.ops"]
    return names


class Tracer:
    """Installs the wrappers, accumulates spans and counts, and removes them."""

    def __init__(self):
        self.stack: list[list[float]] = []  # [child time] per open span
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _rebind(self, original, wrapper, home) -> None:
        """Put ``wrapper`` wherever ``home`` or a pencillab module names ``original``."""
        modules = [home] + [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pencillab" or name.startswith("pencillab."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for span in SPANS:
            module_name, attr = span.split(".")
            try:
                module = importlib.import_module(f"pencillab.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            self._rebind(original, self._span_wrapper(span, original), module)
        for counter, module_name, attr in KERNELS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._rebind(original, self._kernel_wrapper(counter, original), module)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    # -- wrappers -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _span_wrapper(self, span: str, original):
        record = self.spans[span]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.stack.append([0.0])
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self.stack.pop()[0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
                if self.stack:
                    self.stack[-1][0] += elapsed
            if span == "numrange.isotropic_search" and result is not None:
                self._count("numrange.isotropic_search.found")
            if span == "numrange.isotropic_from_singular":
                path = CERTIFICATE_PATHS.get(getattr(result, "method", None))
                if path:
                    self._count(f"numrange.certificate_path.{path}")
            return result

        return wrapper

    def _kernel_wrapper(self, counter: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.stack:
                if counter == "kernel.qz" and len(args) < 2 and kwargs.get("b") is None:
                    return original(*args, **kwargs)  # a standard, not generalized, problem
                self._count(f"{counter}.calls")
                if counter == "kernel.svd" and args:
                    self._count("kernel.svd.ops", _svd_ops(args[0]))
            return original(*args, **kwargs)

        return wrapper

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, (calls, total, self_time) in self.spans.items():
            out[f"{span}.calls"] = calls
            out[f"{span}.total_s"] = total
            out[f"{span}.self_s"] = self_time
        for name in counter_names():
            if name not in out:
                out[name] = self.counts.get(name, 0)
        return out
