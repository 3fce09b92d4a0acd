"""The FORMEPS1 media file: one scalar-catalog entry and its grid.

A file is the magic line ``FORMEPS1`` and one line of JSON, nothing after
it, with exactly the keys N (integer), L (number) and n (integer) of the
grid [-L, L)^N, catalog (a ``scalar_catalog`` tag) and params (an object
of the tag's numeric parameters, tau among them).  The medium is rebuilt
from its closed form on any grid of dimension N (``--media file:PATH``).
"""

from __future__ import annotations

import json

from .fields import GridSpec
from .media import SCALAR, Transformation, scalar_catalog

MEDIA_MAGIC = b"FORMEPS1\n"
# the JSON types of the header values (type(), so a boolean is no number)
HEADER_TYPES = {"N": (int,), "L": (int, float), "n": (int,), "catalog": (str,),
                "params": (dict,)}
CATALOG_PARAMS = {"amplitude", "tau", "width"}  # scalar_catalog's keywords


def _not_a_number(name: str):
    raise ValueError(f"the media header holds {name}, which JSON has no number for")


def save_transformation(path, eps: Transformation, catalog_tag: str,
                        catalog_params: dict | None = None):
    """Write eps as the catalog entry that rebuilds it, with eps.tau unless
    the params give tau.  Raises ValueError unless that entry, built on
    eps's grid, has eps's tau and bitwise eps's values."""
    params = {"tau": eps.tau, **(catalog_params or {})}
    rebuilt = scalar_catalog(eps.grid, catalog_tag, **params)
    if (eps.kind != SCALAR or rebuilt.tau != eps.tau
            or rebuilt.hat.tobytes() != eps.hat.tobytes()):
        raise ValueError(f"catalog entry {catalog_tag!r} with params {params} "
                         f"does not rebuild the medium to be saved")
    header = {"N": eps.grid.dim, "L": eps.grid.half_length, "n": eps.grid.points,
              "catalog": catalog_tag, "params": params}
    with open(path, "wb") as fh:
        fh.write(MEDIA_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n")


def load_transformation(path) -> Transformation:
    """Read a FORMEPS1 file: its catalog entry, built on the file's grid.
    A malformed file, or one that names no catalog entry, raises ValueError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(MEDIA_MAGIC):
        raise ValueError(f"bad magic {raw[:len(MEDIA_MAGIC)]!r}, not {MEDIA_MAGIC!r}")
    line, newline, rest = raw[len(MEDIA_MAGIC):].partition(b"\n")
    if not newline:
        raise ValueError("truncated media file: the header line does not end")
    header = json.loads(line, parse_constant=_not_a_number)
    if not isinstance(header, dict) or "catalog" not in header:
        raise ValueError("media files name a catalog entry: the header is not "
                         "a JSON object with a 'catalog' key (raw payloads are "
                         "not read)")
    if rest:
        raise ValueError(f"{len(rest)} bytes follow the media header")
    if header.keys() != HEADER_TYPES.keys() or any(
            type(header[key]) not in types for key, types in HEADER_TYPES.items()):
        raise ValueError(f"the media header {line.decode()} does not hold exactly "
                         f"the keys N, L, n (numbers, N and n integers), catalog "
                         f"(a string) and params (an object)")
    params = header["params"]
    if not params.keys() <= CATALOG_PARAMS or any(
            type(value) not in (int, float) for value in params.values()):
        raise ValueError(f"catalog params {params}: numbers named "
                         f"{', '.join(sorted(CATALOG_PARAMS))} only")
    grid = GridSpec(header["N"], header["L"], header["n"])
    return scalar_catalog(grid, header["catalog"], **params)
