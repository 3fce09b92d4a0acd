"""Layer tracing from outside the program.

A ``Tracer`` replaces every binding of the functions listed in ``LAYERS``
(and of the numpy.fft / scipy.fft transforms) in formprobe's module
namespaces with a wrapper that records a span: layer, start, end and
parent span.  Spans are kept in memory; ``uninstall`` puts every binding
back exactly as it was.  Only calls made while an operation span is open
(``Tracer.op``) are recorded, so the benchmark's own checking code, which
also calls numpy.fft, never shows up in a layer.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

ROOT_LAYER = "probes"
FFT_LAYER = "spectral.fft"

# layer -> module -> public names (``Class.method`` for methods).  A call to
# anything not listed is charged to the self time of its caller's span.
LAYERS = {
    FFT_LAYER: {"formprobe.spectral": ["fourier", "fourier_inverse"]},
    "spectral.ops": {"formprobe.spectral": [
        "partial_derivative", "exterior_d", "coderivative_delta", "laplacian",
        "d_delta_plus_delta_d", "spectral_sobolev_norm",
        "gaffney_identity_check", "assemble_d", "assemble_delta", "gradient",
        "stokes_duality_residual"]},
    "fields.RT": {"formprobe.fields": ["apply_R", "apply_T",
                                       "split_tangential_normal"]},
    "fields.star": {"formprobe.fields": ["hodge_star"]},
    "fields.wedge": {"formprobe.fields": ["wedge"]},
    "fields.inner": {"formprobe.fields": ["norm", "l2_inner", "fiber_inner"]},
    "weights.sobolev": {"formprobe.weights": [
        "weighted_sobolev_norm", "graph_norm", "annulus_split_bound"]},
    "media.apply": {"formprobe.media": [
        "Transformation.apply", "Transformation.apply_inverse",
        "Transformation.apply_partial", "Transformation.solve_rho_block",
        "reconstruct_from_split"]},
    "media.build": {"formprobe.media": [
        "make_transformation", "scalar_catalog", "transported_transform",
        "reflected_transform", "verify_decay"]},
    "halfspace.reconstruct": {"formprobe.halfspace": [
        "normal_derivative_reconstruct"]},
    "halfspace.stokes": {"formprobe.halfspace": ["stokes_pairing_residual"]},
    "halfspace.restrict": {"formprobe.halfspace": [
        "restrict_to_half", "mirror_Sd", "mirror_Sdelta", "trace_tangential",
        "trace_normal", "extend_boundary_form", "shift", "diff_quotient"]},
    "decompose.solve": {"formprobe.decompose": ["solve_coderivative",
                                                "potential_for_exact"]},
    "decompose.split": {"formprobe.decompose": ["hodge_decompose"]},
    "manufactured.gen": {"formprobe.manufactured": [
        "generate_manufactured", "trig_catalog_entry", "gaussian_form",
        "random_dense_media", "random_band_limited", "random_dyadic",
        "mean_free", "random_coclosed", "parity_symmetrized",
        "halfspace_member", "ManufacturedForm.field", "ManufacturedForm.d",
        "ManufacturedForm.delta"]},
    "bridge": {"formprobe.bridge": [
        "vector_to_form", "form_to_vector", "grad", "curl", "div",
        "bridge_residuals", "roundtrip_exact"]},
}

# transforms counted as FFT calls wherever the program reaches them; scipy.fft
# only once the program has imported it
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

_ITERATIONS = re.compile(r"after (\d+) iterations")


def _split_iterations(result, exc) -> int:
    """Fixed-point iterations of a weighted split, returned or raised."""
    if exc is not None:
        match = _ITERATIONS.search(str(exc))
        return int(match.group(1)) if match else 0
    return int(getattr(result, "iterations", 0))


# layers whose spans carry a note taken from the call's outcome
NOTES = {"decompose.split": _split_iterations}


@dataclass(slots=True)
class Span:
    layer: str
    start: int           # perf_counter_ns
    end: int = 0
    parent: int = -1     # index into Tracer.spans, -1 for an operation span
    fft: bool = False    # a raw transform call
    points: int = 0      # input elements of a raw transform
    nbytes: int = 0      # input + output bytes of a raw transform
    raised: bool = False
    note: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


def _size(array) -> tuple:
    return int(getattr(array, "size", 0)), int(getattr(array, "nbytes", 0))


class Tracer:
    """Installs layer wrappers and records spans while an operation runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, name, original)

    # -- span recording -----------------------------------------------------

    def _open(self, layer: str, fft: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, time.perf_counter_ns(), parent=parent,
                               fft=fft))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, raised: bool = False):
        self.spans[index].end = time.perf_counter_ns()
        self.spans[index].raised = raised
        self._stack.pop()

    @contextmanager
    def op(self):
        """Root span around one benchmark operation."""
        index = self._open(ROOT_LAYER)
        try:
            yield
        except BaseException:
            self._close(index, raised=True)
            raise
        self._close(index)

    def _wrap(self, fn, layer: str, fft: bool = False):
        tracer = self
        note = NOTES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            index = tracer._open(layer, fft)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if note is not None:
                    tracer.spans[index].note = note(None, exc)
                tracer._close(index, raised=True)
                raise
            span = tracer.spans[index]
            if fft:
                span.points, in_bytes = _size(args[0] if args else
                                              kwargs.get("a", kwargs.get("x")))
                span.nbytes = in_bytes + _size(result)[1]
            if note is not None:
                span.note = note(result, None)
            tracer._close(index)
            return result
        wrapper.__traced__ = True
        return wrapper

    # -- installation -------------------------------------------------------

    def _targets(self) -> list:
        """(owner, attribute, original, layer, fft) for every wrapped name."""
        targets = []
        for layer, modules in LAYERS.items():
            for mod_name, names in modules.items():
                module = sys.modules.get(mod_name)
                if module is None:
                    continue
                for name in names:
                    owner = module
                    if "." in name:
                        cls_name, name = name.split(".")
                        owner = getattr(module, cls_name, None)
                        if owner is None or name not in vars(owner):
                            continue
                        targets.append((owner, name, vars(owner)[name], layer, False))
                    elif hasattr(module, name):
                        targets.append((owner, name, getattr(module, name), layer, False))
        for mod_name in FFT_MODULES:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            for name in FFT_NAMES:
                if hasattr(module, name):
                    targets.append((module, name, getattr(module, name),
                                    FFT_LAYER, True))
        return targets

    def install(self):
        """Replace every binding of a traced function with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("numpy.fft")   # numpy loads it on first use
        wrappers = {}
        for owner, name, original, layer, fft in self._targets():
            if id(original) not in wrappers:
                wrappers[id(original)] = (original, self._wrap(original, layer, fft))
            self._patch(owner, name, original, wrappers[id(original)][1])
        # names bound elsewhere, e.g. by ``from .spectral import fourier``
        for module in _namespaces():
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, name, value, entry[1])

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self):
        """Restore every patched binding, in reverse order."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _namespaces() -> list:
    """formprobe's modules plus the transform modules, as loaded now."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "formprobe" or n.startswith("formprobe.")
                                  or n in FFT_MODULES)]


def binding_snapshot() -> dict:
    """(namespace, name) -> object id for every binding the tracer may patch."""
    snap = {}
    for module in _namespaces():
        for name, value in vars(module).items():
            snap[(module.__name__, name)] = id(value)
        for cls_name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    snap[(f"{module.__name__}.{cls_name}", attr)] = id(member)
    return snap


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list) -> list:
    """Each span's duration minus the time covered by its direct children."""
    child_cover = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_cover[span.parent] += span.duration
    return [span.duration - child_cover[i] for i, span in enumerate(spans)]


def _fft_under(spans: list, layer: str) -> tuple:
    """(FFT calls made inside the layer's outermost spans, outermost spans)."""
    def has_ancestor(i: int) -> bool:
        parent = spans[i].parent
        while parent >= 0:
            if spans[parent].layer == layer:
                return True
            parent = spans[parent].parent
        return False

    outer = sum(1 for i, s in enumerate(spans)
                if s.layer == layer and not s.fft and not has_ancestor(i))
    ffts = sum(1 for i, s in enumerate(spans) if s.fft and has_ancestor(i))
    return ffts, outer


def layer_totals(spans: list) -> dict:
    """Per-layer call counts and self time (seconds) over a list of spans.

    ``calls`` counts every span of the layer, except that the FFT layer
    counts raw transforms only (``fourier`` wraps one transform each).
    """
    totals = {layer: {"calls": 0, "self_s": 0.0}
              for layer in (ROOT_LAYER, *LAYERS)}
    for span, self_ns in zip(spans, self_times(spans)):
        entry = totals[span.layer]
        entry["self_s"] += self_ns * 1e-9
        if span.layer != FFT_LAYER or span.fft:
            entry["calls"] += 1
    fft = totals[FFT_LAYER]
    fft["points"] = sum(s.points for s in spans if s.fft)
    fft["bytes"] = sum(s.nbytes for s in spans if s.fft)
    for layer in ("weights.sobolev", "decompose.solve"):
        ffts, outer = _fft_under(spans, layer)
        totals[layer]["fft_per_call"] = ffts / outer if outer else 0.0
    split = [s for s in spans if s.layer == "decompose.split"]
    totals["decompose.split"]["iterations"] = sum(s.note for s in split)
    totals["decompose.split"]["failed"] = sum(1 for s in split if s.raised)
    return totals
