"""The FORMEPS1 container of a material transformation.

A file starts with an ASCII magic line and a one-line JSON header, then
raw little-endian payload.  It stores a catalog tag and its parameters
(no payload), an identity (no payload), or the float64 perturbation of a
scalar or dense material on its grid; ``--media file:PATH`` reads it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .fields import GridSpec, n_components
from .media import (DENSE, IDENTITY, SCALAR, Transformation,
                    make_transformation, scalar_catalog)

MEDIA_MAGIC = b"FORMEPS1\n"


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
    endian = header.get("endian", "little")
    if endian not in ("little", "big"):
        raise ValueError(f"unknown payload endianness {endian!r}")
    dtype = np.dtype(("<" if endian == "little" else ">") + kind)
    raw = fh.read()
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"payload has {len(raw)} bytes, the header declares "
                         f"{expected} (shape {shape}, dtype {dtype.str})")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(kind)


def save_transformation(path, eps: Transformation, catalog_tag: str | None = None,
                        catalog_params: dict | None = None):
    """Persist a transformation: its catalog tag when given, else its
    perturbation."""
    header = {"N": eps.grid.dim, "q": eps.rank, "L": eps.grid.half_length,
              "n": eps.grid.points, "kind": eps.kind, "tau": eps.tau,
              "m": eps.smoothness, "decay": eps.decay_kind,
              "endian": "little"}
    if catalog_tag is not None:
        header["catalog"] = catalog_tag
        header["params"] = catalog_params or {}
    with open(path, "wb") as fh:
        _write_header(fh, MEDIA_MAGIC, header)
        if catalog_tag is None and eps.kind != IDENTITY:
            fh.write(np.ascontiguousarray(eps.hat, "<f8").tobytes())


def load_transformation(path) -> Transformation:
    """Read a FORMEPS1 file.  A catalog medium is rebuilt on the file's grid
    with the header's tau unless its params give one; a header whose decay
    kind or smoothness differs from the rebuilt medium's is rejected."""
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
        params = {"tau": header["tau"], **header.get("params", {})}
        eps = scalar_catalog(grid, header["catalog"], **params)
        for key, value in (("decay", eps.decay_kind), ("m", eps.smoothness)):
            if header[key] != value:
                raise ValueError(f"catalog {header['catalog']!r} has {key} "
                                 f"{value!r}, the header declares {header[key]!r}")
        return eps
    return make_transformation(grid, header["q"], kind, hat=hat,
                               tau=header["tau"], decay_kind=header["decay"],
                               smoothness=header["m"])
