"""Request timing, and reference kernels that track the host's speed.

``Meter`` times each request of a pass; with a ``Calibrator`` it also
probes the host's speed between requests.

On a shared host the same code can run up to 1.7 times slower for tens of
seconds at a time, and the slowdown differs between interpreter-bound and
memory-bound code.  Each workload therefore names a small reference kernel
that resembles its own hot path (``Workload.reference_kernel``).  The
benchmark times that kernel between requests, every ``EVERY`` seconds, and
reports each interval's time normalised to a reference speed:

    normalised = raw * ref_seconds / median(kernel times near the interval)

"Near" is within ``WINDOW`` seconds of the interval, or the three nearest
probes when fewer lie there.  ``ref_seconds`` is the kernel's median time
over the baseline runs (``baseline/BASELINE.md``), so a normalised time
reads as seconds on the baseline machine at its median speed.  The kernels
are the benchmark's own code, so a change to lnsrlab cannot change them,
and they run with the cyclic garbage collector off, so they do not pay for
collecting the library's heap.  They do share the CPU caches and memory
bandwidth with the library; raw times are printed beside the normalised
ones.
"""

import bisect
import gc
import statistics
from dataclasses import dataclass

EVERY = 0.1
WINDOW = 1.0
MIN_PROBES = 3


class Calibrator:
    def __init__(self, clock, kernel, ref_seconds: float):
        self._clock = clock
        self._kernel = kernel
        self.ref_seconds = ref_seconds
        self.stamps = []
        self.times = []
        self.spent = 0.0
        self._last = float("-inf")

    def probe(self):
        """Time the kernel once, with the cyclic garbage collector off."""
        enabled = gc.isenabled()
        gc.disable()
        t0 = self._clock()
        self._kernel()
        t1 = self._clock()
        if enabled:
            gc.enable()
        self.stamps.append(0.5 * (t0 + t1))
        self.times.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe_probe(self):
        """Probe if ``EVERY`` seconds have passed since the last probe."""
        if self._clock() - self._last >= EVERY:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """``ref_seconds`` over the median kernel time near [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW)
        if hi - lo < MIN_PROBES:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(range(len(self.stamps)), key=lambda i: abs(self.stamps[i] - mid))
            near = [self.times[i] for i in nearest[:MIN_PROBES]]
        else:
            near = self.times[lo:hi]
        return self.ref_seconds / statistics.median(near)


@dataclass
class Request:
    kind: str
    start: float
    seconds: float
    items: int
    output: object = None
    error: str | None = None
    extra: object = None  # input kept for the checks


class Meter:
    """Times requests; tags spans when traced; probes the host's speed
    between requests when a calibrator is given."""

    def __init__(self, clock, tracer=None, calibrator=None):
        self.clock = clock
        self.tracer = tracer
        self.calibrator = calibrator

    def request(self, request_id, kind, items, fn) -> Request:
        """Run ``fn()`` as one request; an exception is recorded, not raised."""
        if self.tracer is not None:
            self.tracer.set_request(request_id)
        t0 = self.clock()
        try:
            out, err = fn(), None
        except Exception as exc:  # a failed operation counts into fail_ratio
            out, err = None, f"{type(exc).__name__}: {exc}"
        seconds = self.clock() - t0
        if self.tracer is not None:
            self.tracer.set_request(-1)
        if self.calibrator is not None:
            self.calibrator.maybe_probe()
        return Request(kind=kind, start=t0, seconds=seconds, items=items, output=out, error=err)
