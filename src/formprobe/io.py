"""Binary container formats shared across the toolkit.

Every file starts with an ASCII magic line and a one-line JSON header,
then raw little-endian payload.  Form fields store C(N, q) row-major
complex scalar fields in lexicographic multi-index order; transformations
store either a catalog tag or dense per-node perturbation matrices.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .fields import FormField, GridSpec, n_components
from .media import (DENSE, IDENTITY, SCALAR, Transformation,
                    make_transformation, scalar_catalog)

FORM_MAGIC = b"FORMFLD1\n"
BOUNDARY_MAGIC = b"FORMBND1\n"
MEDIA_MAGIC = b"FORMEPS1\n"

MULTI_INDEX_ORDER = "lex-increasing"


def _write_header(fh, magic: bytes, header: dict):
    fh.write(magic)
    fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")


def _read_header(fh, magic: bytes) -> dict:
    got = fh.read(len(magic))
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")
    return json.loads(fh.readline().decode("utf-8"))


def _read_payload(fh, header: dict, kind: str, shape: tuple) -> np.ndarray:
    """The rest of the file as an array of the header's shape and dtype."""
    endian = "<" if header.get("endian", "little") == "little" else ">"
    dtype = np.dtype(endian + kind)
    raw = fh.read()
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"payload has {len(raw)} bytes, the header declares "
                         f"{expected} (shape {shape}, dtype {dtype.str})")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(kind)


def _check_order(header: dict):
    if header.get("order") != MULTI_INDEX_ORDER:
        raise ValueError(f"unsupported multi-index order {header.get('order')!r}")


def _write_form(path, magic: bytes, header: dict, e: FormField):
    if e.spectral or e.grid.half:
        raise ValueError("only position-space fields on a periodic grid "
                         "are persisted")
    header.update(q=e.rank, L=e.grid.half_length, n=e.grid.points,
                  order=MULTI_INDEX_ORDER, endian="little")
    with open(path, "wb") as fh:
        _write_header(fh, magic, header)
        fh.write(np.ascontiguousarray(e.data, "<c16").tobytes())


def _read_form(path, magic: bytes, dim_key: str) -> FormField:
    with open(path, "rb") as fh:
        header = _read_header(fh, magic)
        _check_order(header)
        grid = GridSpec(header[dim_key], header["L"], header["n"])
        shape = (n_components(grid.dim, header["q"]),) + grid.shape
        return FormField(grid, header["q"], _read_payload(fh, header, "c16", shape))


# ---------------------------------------------------------------------------
# form fields and boundary forms (forms on the (N-1)-plane)
# ---------------------------------------------------------------------------

def save_form_field(path, e: FormField):
    _write_form(path, FORM_MAGIC, {"N": e.grid.dim}, e)


def load_form_field(path) -> FormField:
    return _read_form(path, FORM_MAGIC, "N")


def save_boundary_form(path, b: FormField):
    _write_form(path, BOUNDARY_MAGIC, {"N_boundary": b.grid.dim}, b)


def load_boundary_form(path) -> FormField:
    return _read_form(path, BOUNDARY_MAGIC, "N_boundary")


# ---------------------------------------------------------------------------
# transformations
# ---------------------------------------------------------------------------

def save_transformation(path, eps: Transformation, catalog_tag: str | None = None,
                        catalog_params: dict | None = None):
    """Persist a transformation: catalog tag when given, dense otherwise."""
    header = {"N": eps.grid.dim, "q": eps.rank, "L": eps.grid.half_length,
              "n": eps.grid.points, "kind": eps.kind, "tau": eps.tau,
              "m": eps.smoothness, "decay": eps.decay_kind,
              "endian": "little"}
    if catalog_tag is not None:
        header["catalog"] = catalog_tag
        header["params"] = catalog_params or {}
        with open(path, "wb") as fh:
            _write_header(fh, MEDIA_MAGIC, header)
        return
    if eps.kind == IDENTITY:
        with open(path, "wb") as fh:
            _write_header(fh, MEDIA_MAGIC, header)
        return
    with open(path, "wb") as fh:
        _write_header(fh, MEDIA_MAGIC, header)
        fh.write(np.ascontiguousarray(eps.hat, "<f8").tobytes())


def load_transformation(path) -> Transformation:
    with open(path, "rb") as fh:
        header = _read_header(fh, MEDIA_MAGIC)
        grid = GridSpec(header["N"], header["L"], header["n"])
        kind = "catalog" if "catalog" in header else header["kind"]
        if kind == DENSE:
            shape = (n_components(grid.dim, header["q"]),) * 2 + grid.shape
        elif kind == SCALAR:
            shape = grid.shape
        elif kind in (IDENTITY, "catalog"):
            shape = (0,)
        else:
            raise ValueError(f"unknown transformation kind {kind!r}")
        hat = _read_payload(fh, header, "f8", shape)
    if kind == "catalog":
        return scalar_catalog(grid, header["catalog"], **header.get("params", {}))
    return make_transformation(grid, header["q"], kind, hat=hat,
                               tau=header["tau"], decay_kind=header["decay"],
                               smoothness=header["m"])
