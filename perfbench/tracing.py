"""In-memory spans recorded from outside the program.

The tracer replaces, for the duration of a ``with`` block, the public entry
points that ``dynamics.run`` and the benchmark's set-up reach through module
globals, and the ``scipy.fft`` functions that ``strainamp.grid`` calls. Each
call becomes one span: name, start, end, parent span and run id. FFT spans
also carry the number of component transforms and the bytes read and written.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass

import scipy.fft

from strainamp import config, diagnostics, dynamics, initdata

# (module, attribute, span name)
WRAPPED = (
    (config, "parse_config", "config.parse_config"),
    (initdata, "initial_strain", "initdata.initial_strain"),
    (dynamics, "make_state", "dynamics.make_state"),
    (dynamics, "run", "dynamics.run"),
    (dynamics, "step", "dynamics.step"),
    (dynamics, "cfl_dt", "dynamics.cfl_dt"),
    (dynamics, "write_checkpoint", "dynamics.write_checkpoint"),
    (dynamics, "read_checkpoint", "dynamics.read_checkpoint"),
    (diagnostics, "sample_functionals", "diagnostics.sample_functionals"),
)
FFT_WRAPPED = (
    (scipy.fft, "rfftn", "grid.fft_fwd"),
    (scipy.fft, "irfftn", "grid.fft_inv"),
)
FFT_NAMES = tuple(name for _, _, name in FFT_WRAPPED)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    components: int = 0  # FFT spans: component transforms in the call
    bytes: int = 0  # FFT spans: input plus output array bytes

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Context manager that records spans while installed.

    `run_id` labels the spans of one repetition; set it before each one.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, fft: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, name, 0.0, 0.0, parent, self.run_id)
            self.spans.append(span)
            self._stack.append(sid)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if fft:
                a = args[0]
                span.components = math.prod(a.shape[:-3])
                span.bytes = a.nbytes + out.nbytes
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        for table, fft in ((WRAPPED, False), (FFT_WRAPPED, True)):
            for module, attr, name in table:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._span(name, fn, fft))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def require(self, names) -> None:
        """Fail loudly when an expected span never fired (for example after a
        refactor routes around a wrapped name) instead of reporting zeros."""
        fired = {s.name for s in self.spans}
        missing = sorted(set(names) - fired)
        if missing:
            raise RuntimeError(f"expected spans never fired: {', '.join(missing)}")

    def write(self, path: str, env: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"env": env, "spans": [asdict(s) for s in self.spans]}, fh)
