"""Grids, multi-indices and the pointwise algebra of alternating forms.

A rank-q form on an N-dimensional periodic box is stored as a stack of
C(N, q) scalar fields, one per strictly increasing multi-index, in
lexicographic multi-index order: float64 for a real form, complex128 for
a complex one and for every spectrum.  Every signed map between components
(Hodge star, R and T, wedge splits) is a cached ``sign_table`` built from
``merge_sign`` and applied by the one kernel ``apply_table``, on the
periodic box, the half box, the boundary plane or the frequency grid.
Which components hold x_N is one mask, ``normal_mask``: the
tangential/normal split and the traces select by it, and the reflection
(x', x_N) -> (x', -x_N) is its sign vector (``reflection_signs``) and one
node flip (``reflect_nodes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import combinations, product

import numpy as np

MultiIndex = tuple  # strictly increasing tuple of axis labels in {1, .., N}


# ---------------------------------------------------------------------------
# multi-index bookkeeping and permutation signs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def multi_indices(dim: int, rank: int) -> tuple:
    """All strictly increasing rank-tuples from {1, .., dim}, lex order.

    Ranks above the dimension have no indices (the zero space), mirroring
    C(dim, rank) = 0; that case shows up for traces of top-rank forms.
    """
    if rank < 0:
        raise ValueError(f"negative rank {rank}")
    return tuple(combinations(range(1, dim + 1), rank))


def derivative_orders(dim: int, max_order: int):
    """Every derivative multi-index alpha in {0, 1, ..}^dim with
    |alpha| <= max_order, in lexicographic order."""
    for alpha in product(range(max_order + 1), repeat=dim):
        if sum(alpha) <= max_order:
            yield alpha


@lru_cache(maxsize=None)
def _index_positions(dim: int, rank: int) -> dict:
    return {mi: pos for pos, mi in enumerate(multi_indices(dim, rank))}


def index_position(dim: int, mi: MultiIndex) -> int:
    """Position of a multi-index in the lexicographic component order."""
    return _index_positions(dim, len(mi))[tuple(mi)]


def validate_multi_index(mi, dim: int) -> tuple:
    mi = tuple(int(i) for i in mi)
    if any(b <= a for a, b in zip(mi, mi[1:])):
        raise ValueError(f"multi-index {mi} is not strictly increasing")
    if mi and not (1 <= mi[0] and mi[-1] <= dim):
        raise ValueError(f"multi-index {mi} outside 1..{dim}")
    return mi


def n_components(dim: int, rank: int) -> int:
    return math.comb(dim, rank)


def merge_sign(left: MultiIndex, right: MultiIndex):
    """Merge two disjoint increasing tuples.

    Returns (merged, sign) where sign is the parity of the permutation
    sorting left+right, or None when the tuples overlap.
    """
    if set(left) & set(right):
        return None
    inversions = sum(1 for a in left for b in right if a > b)
    merged = tuple(sorted(left + right))
    return merged, (-1 if inversions % 2 else 1)


def complement_index(mi: MultiIndex, dim: int) -> tuple:
    others = [i for i in range(1, dim + 1) if i not in mi]
    return tuple(others)


def star_sign(mi: MultiIndex, dim: int) -> int:
    """Sign of the permutation (mi, complement) of (1, .., dim)."""
    merged = merge_sign(tuple(mi), complement_index(mi, dim))
    return merged[1]


# ---------------------------------------------------------------------------
# grid geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic box [-L, L)^N with n points per axis, or its half
    layout (``half``): the first n/2 + 1 slices along the last axis.

    In position space the half layout is the lower half-box {x_N <= 0},
    the boundary plane x_N = 0 last, closed by trapezoid weights.  On the
    frequency side it is the half spectrum of a real field (k_N = 0 ..
    n/2, the rfftn layout), whose Parseval weights are twice the
    trapezoid weights: 1 on the planes k_N = 0 and n/2, which are their
    own mirror images, and 2 on the others, which stand for k and -k.
    """

    dim: int
    half_length: float
    points: int
    half: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.half_length <= 0:
            raise ValueError("half-length must be positive")
        if self.points < 2 or self.points % 2:
            raise ValueError("points per axis must be even and >= 2")

    def half_box(self) -> "GridSpec":
        return replace(self, half=True)

    def periodic_box(self) -> "GridSpec":
        return replace(self, half=False)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def shape(self) -> tuple:
        n = self.points
        return (n,) * (self.dim - 1) + (n // 2 + 1 if self.half else n,)

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    @property
    def quadrature_weights(self) -> np.ndarray | None:
        """Weights along x_N: None for the plain sum of the periodic box,
        the trapezoid closure (half weight at both ends) on the half box."""
        if not self.half:
            return None
        w = np.ones(self.shape[-1])
        w[0] = 0.5
        w[-1] = 0.5
        return w

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The part of a periodic-box array (trailing node axes) on this
        grid's nodes, as a view."""
        return values[..., : self.shape[-1]]

    def axis_coords(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(self.points)

    def coord_field(self, axis: int) -> np.ndarray:
        """Coordinate x_axis broadcastable over the grid (axis is 1-based)."""
        shape = [1] * self.dim
        shape[axis - 1] = self.shape[axis - 1]
        return self.axis_coords()[: shape[axis - 1]].reshape(shape)

    def coord_fields(self) -> tuple:
        return tuple(self.coord_field(j) for j in range(1, self.dim + 1))

    def axis_freqs(self) -> np.ndarray:
        """Derivative frequencies pi*k/L with the Nyquist entry zeroed."""
        xi = 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.spacing)
        xi[self.points // 2] = 0.0
        return xi

    def freq_field(self, axis: int) -> np.ndarray:
        """Frequency xi_axis broadcastable over the frequency grid; the half
        layout keeps k_N = 0 .. n/2 (Nyquist last, zeroed)."""
        shape = [1] * self.dim
        shape[axis - 1] = self.shape[axis - 1]
        return self.axis_freqs()[: shape[axis - 1]].reshape(shape)

    def freq_fields(self) -> tuple:
        return tuple(self.freq_field(j) for j in range(1, self.dim + 1))

    def radius_sq(self) -> np.ndarray:
        return sum_of_squares(self.coord_fields())

    def freq_radius_sq(self) -> np.ndarray:
        return sum_of_squares(self.freq_fields())


def sum_of_squares(axes) -> np.ndarray:
    """c_1^2 + .. + c_N^2 added in axis order, from one broadcastable array
    per axis: |x|^2 and |xi|^2 on a grid, or |xi|^2 on an index cube.
    Each add makes a full-size array: adding the broadcast squares
    directly gives the same values but raised the estimate probes' peak
    RSS by up to 38 MB (glibc malloc; the traced peak is the same)."""
    r2 = np.zeros(np.broadcast_shapes(*(c.shape for c in axes)))
    for c in axes:
        r2 = r2 + c * c
    return r2


# ---------------------------------------------------------------------------
# form fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormField:
    """Rank-q alternating form sampled on a grid.

    ``data`` has shape (C(N, q),) + grid.shape; component ``k`` belongs to
    the k-th multi-index of ``multi_indices(N, q)``.  The grid is the
    periodic box, its half box or a boundary plane.  ``spectral`` marks
    fields living on the discrete frequency grid instead of the position
    grid: the full spectrum of a complex field, or on the half layout the
    half spectrum of a real one.  Real position data is held as float64,
    complex data and every spectrum as complex128.
    """

    grid: GridSpec
    rank: int
    data: np.ndarray = field(repr=False)
    spectral: bool = False

    def __post_init__(self):
        nc = n_components(self.grid.dim, self.rank)
        expected = (nc,) + self.grid.shape
        if self.data.shape != expected:
            raise ValueError(f"component array has shape {self.data.shape}, "
                             f"expected {expected}")
        complex_ = self.spectral or np.iscomplexobj(self.data)
        dtype = np.complex128 if complex_ else np.float64
        if self.data.dtype != dtype:
            object.__setattr__(self, "data", np.ascontiguousarray(self.data, dtype))
        self.data.flags.writeable = False

    # -- construction -------------------------------------------------------

    @classmethod
    def zeros(cls, grid: GridSpec, rank: int, spectral: bool = False) -> "FormField":
        nc = n_components(grid.dim, rank)
        return cls(grid, rank, np.zeros((nc,) + grid.shape), spectral)

    @classmethod
    def from_components(cls, grid: GridSpec, rank: int, comps: dict,
                        spectral: bool = False) -> "FormField":
        """Build from a {multi-index: scalar field} mapping; missing = 0."""
        out = np.zeros((n_components(grid.dim, rank),) + grid.shape,
                       np.result_type(np.float64, *comps.values()))
        for mi, values in comps.items():
            mi = validate_multi_index(mi, grid.dim)
            if len(mi) != rank:
                raise ValueError(f"multi-index {mi} has wrong length for rank {rank}")
            out[index_position(grid.dim, mi)] = np.broadcast_to(values, grid.shape)
        return cls(grid, rank, out, spectral)

    # -- accessors ----------------------------------------------------------

    @property
    def indices(self) -> tuple:
        return multi_indices(self.grid.dim, self.rank)

    def component(self, mi: MultiIndex) -> np.ndarray:
        return self.data[index_position(self.grid.dim, tuple(mi))]

    def take_data(self) -> np.ndarray:
        """The data array, writeable again, for a caller that holds the only
        reference to this field (an operator's fresh output) and reuses its
        buffer in place; the field is not read after.  The spectrum that
        ``spectral.fourier`` remembers for it is dropped."""
        vars(self).pop("_spectrum", None)
        self.data.flags.writeable = True
        return self.data

    def with_data(self, data: np.ndarray, rank=None, spectral=None) -> "FormField":
        return FormField(self.grid,
                         self.rank if rank is None else rank,
                         data,
                         self.spectral if spectral is None else spectral)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "FormField") -> "FormField":
        _check_compatible(self, other)
        return self.with_data(self.data + other.data)

    def __sub__(self, other: "FormField") -> "FormField":
        _check_compatible(self, other)
        return self.with_data(self.data - other.data)

    def __mul__(self, factor) -> "FormField":
        return self.with_data(self.data * factor)

    __rmul__ = __mul__

    def __neg__(self) -> "FormField":
        return self.with_data(-self.data)

    def scale_pointwise(self, weight: np.ndarray) -> "FormField":
        """Multiply every component by a scalar field on the grid."""
        return self.with_data(self.data * weight)


def _check_compatible(a: FormField, b: FormField, same_rank: bool = True):
    if a.grid != b.grid:
        raise ValueError("grid mismatch between form fields")
    if a.spectral != b.spectral:
        raise ValueError("cannot mix position-space and frequency-space fields")
    if same_rank and a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} vs {b.rank}")


# ---------------------------------------------------------------------------
# sign tables: every signed map between form components
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def normal_mask(dim: int, rank: int) -> np.ndarray:
    """Boolean mask of the rank-q components whose index contains N."""
    mask = np.array([dim in mi for mi in multi_indices(dim, rank)], bool)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class SignTable:
    """Sparse signed map from one component stack to another.

    ``entries`` holds (target, source, sign, factor) tuples grouped by
    target in ascending order, each target's terms in accumulation order.
    ``factor`` indexes the stack multiplied into the term (the 0-based axis
    for R and T, the component of the second form for the wedge) or is
    None.
    """

    targets: int
    sources: int
    entries: tuple


def _insertion_entries(dim: int, rank: int, contract: bool) -> list:
    """dx^j wedged onto each rank-q index (R), or contracted out of it (T),
    with the sign of merging (j,) into the rest.  The terms of a target
    descend in j, the lexicographic order of their sources."""
    entries = []
    for t, mi in enumerate(multi_indices(dim, rank + (-1 if contract else 1))):
        for j in range(dim, 0, -1):
            if (j in mi) != contract:
                rest = tuple(i for i in mi if i != j)
                merged, sign = merge_sign((j,), rest)
                entries.append((t, index_position(dim, merged if contract else rest),
                                sign, j - 1))
    return entries


def _wedge_entries(dim: int, p: int, q: int) -> list:
    """Every split of each rank-(p+q) index into a rank-p part and the
    rank-q rest, the rank-p parts in lexicographic order."""
    entries = []
    for t, k_mi in enumerate(multi_indices(dim, p + q)):
        for left in combinations(k_mi, p):
            right = tuple(i for i in k_mi if i not in left)
            entries.append((t, index_position(dim, left),
                            merge_sign(left, right)[1], index_position(dim, right)))
    return entries


@lru_cache(maxsize=None)
def sign_table(kind, dim: int, rank: int) -> SignTable:
    """The cached sign table of a map on rank-q components in dimension N.

    kind is "star", "R", "T" or ("wedge", q2) for the product with a
    rank-q2 form.  Every sign comes from ``merge_sign``.
    """
    name = kind if isinstance(kind, str) else kind[0]
    mis = multi_indices(dim, rank)
    targets = len(mis)
    if name == "star":
        entries = sorted((index_position(dim, complement_index(mi, dim)), pos,
                          star_sign(mi, dim), None) for pos, mi in enumerate(mis))
    elif name in ("R", "T"):
        targets = n_components(dim, rank + (1 if name == "R" else -1))
        entries = _insertion_entries(dim, rank, name == "T")
    elif name == "wedge":
        targets = n_components(dim, rank + kind[1])
        entries = _wedge_entries(dim, rank, kind[1])
    else:
        raise ValueError(f"unknown sign table {kind!r}")
    return SignTable(targets, len(mis), tuple(entries))


def apply_table(table: SignTable, source, factors=None) -> np.ndarray:
    """Apply a sign table to component arrays of any trailing node shape.

    Each entry (t, s, sign, f) adds sign * term to out[t]: term is
    source[s], source[s] * factors[f] when factors are given, or
    source[f][s] when ``source`` is a sequence of stacks, one per factor
    (d and delta assembled from given partials).  Each target adds its
    terms in table order.  The output is real when every input is.
    """
    if not isinstance(source, np.ndarray):
        inputs, term = source, lambda s, f: source[f][s]
    elif factors is None:
        inputs, term = [source], lambda s, f: source[s]
    else:
        inputs, term = [source, *factors], lambda s, f: source[s] * factors[f]
    out = np.empty((table.targets,) + inputs[0].shape[1:], np.result_type(*inputs))
    last = -1
    for t, s, sign, f in table.entries:
        value = term(s, f)
        if t != last:
            out[last + 1:t] = 0.0
            if sign > 0:
                out[t] = value
            else:
                np.negative(value, out=out[t])
        elif sign > 0:
            out[t] += value
        else:
            out[t] -= value
        del value  # a product is freed before the next one is made
        last = t
    out[last + 1:] = 0.0
    return out


@lru_cache(maxsize=None)
def reflection_signs(dim: int, rank: int) -> np.ndarray:
    """x_N -> -x_N acting on forms: -1 on the components with N, read-only,
    with shape (C(N, q),) + (1,) * N so that it broadcasts over a stack."""
    signs = np.where(normal_mask(dim, rank), -1.0, 1.0).reshape((-1,) + (1,) * dim)
    signs.flags.writeable = False
    return signs


def reflect_nodes(values: np.ndarray, signs=1.0) -> np.ndarray:
    """signs * values(x', -x_N) on the periodic box: node k of the trailing
    axis takes node (n - k) mod n, read through two views (k = 0 is its
    own image)."""
    out = np.empty_like(values)
    np.multiply(values[..., :1], signs, out=out[..., :1])
    np.multiply(values[..., :0:-1], signs, out=out[..., 1:])
    return out


# ---------------------------------------------------------------------------
# pointwise operator algebra
# ---------------------------------------------------------------------------

def wedge(e: FormField, f: FormField) -> FormField:
    """Exterior product of a rank-p and a rank-q form."""
    _check_compatible(e, f, same_rank=False)
    dim = e.grid.dim
    if e.rank + f.rank > dim:
        raise ValueError(f"rank overflow: {e.rank} + {f.rank} > {dim}")
    out = apply_table(sign_table(("wedge", f.rank), dim, e.rank), e.data, f.data)
    return e.with_data(out, rank=e.rank + f.rank)


def hodge_star(e):
    """Euclidean Hodge star: (star E)_{I^c} = sign(I, I^c) E_I."""
    dim = e.grid.dim
    return e.with_data(apply_table(sign_table("star", dim, e.rank), e.data),
                       rank=dim - e.rank)


def apply_R(e: FormField) -> FormField:
    """Multiplication operator sum_n c_n dx^n wedge E; c are the position
    coordinates, or the frequencies for a spectral field."""
    if e.rank >= e.grid.dim:
        raise ValueError("rank overflow: R on a top-rank form")
    coords = e.grid.freq_fields() if e.spectral else e.grid.coord_fields()
    out = apply_table(sign_table("R", e.grid.dim, e.rank), e.data, coords)
    return e.with_data(out, rank=e.rank + 1)


def apply_T(e: FormField) -> FormField:
    """Contraction with the same c, the star-dual of R on rank-q forms:
    T = (-1)^((q-1) N) star R star."""
    if e.rank < 1:
        raise ValueError("rank underflow: T on a rank-0 form")
    coords = e.grid.freq_fields() if e.spectral else e.grid.coord_fields()
    out = apply_table(sign_table("T", e.grid.dim, e.rank), e.data, coords)
    return e.with_data(out, rank=e.rank - 1)


def split_tangential_normal(e) -> tuple:
    """Pointwise orthogonal split by whether the last axis is in the index."""
    mask = normal_mask(e.grid.dim, e.rank).reshape((-1,) + (1,) * e.grid.dim)
    return (e.with_data(np.where(mask, 0.0, e.data)),
            e.with_data(np.where(mask, e.data, 0.0)))


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

# OpenBLAS threads a complex dot product above 10 000 elements, and the
# worker it wakes then spins on another core after every call; blocks
# below that size keep the sum on the calling thread.  formprobe loads
# OpenBLAS with one thread by default, but a process that imported numpy
# first (or set OPENBLAS_NUM_THREADS) still has the pool, and the block
# order fixes the sum's rounding, hence the report bytes.
_VDOT_BLOCK = 8192


def _blocked_vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum conj(a) b, as np.vdot over contiguous blocks of _VDOT_BLOCK."""
    a = a.reshape(-1)
    b = b.reshape(-1)
    return sum((np.vdot(a[i:i + _VDOT_BLOCK], b[i:i + _VDOT_BLOCK])
                for i in range(0, a.size, _VDOT_BLOCK)), 0j)


def weighted_inner(e: FormField, h: FormField, w: np.ndarray) -> complex:
    """Quadrature of sum_I E_I conj(H_I) with weights w along x_N."""
    _check_compatible(e, h)
    total = np.sum(w * np.sum(e.data * h.data.conj(), axis=0))
    return complex(total * e.grid.cell_volume)


@lru_cache(maxsize=8)
def _inner_weight(grid: GridSpec, exponent: float) -> np.ndarray:
    """(1 + r^2)^s on the grid, times the trapezoid weights along x_N on a
    half box: the weight of ``l2_inner`` at exponent s, built once per
    (grid, s) and read-only."""
    weight = (1.0 + grid.radius_sq()) ** exponent
    w = grid.quadrature_weights
    if w is not None:
        weight = weight * w
    weight.flags.writeable = False
    return weight


def l2_inner(e: FormField, h: FormField, weight_exponent: float = 0.0) -> complex:
    """Grid quadrature of rho^(2s) sum_I E_I conj(H_I).

    The periodic box uses the plain sum times h^N, exact for band-limited
    integrands; the half box closes x_N with its grid's trapezoid weights.
    On the frequency side the sum is Parseval's: plain on a full spectrum;
    on a half spectrum each mode counts for itself and its mirror -k
    (twice the trapezoid weights) and the sum is real.  Polynomial weights
    apply to position-space fields only.
    """
    w = e.grid.quadrature_weights
    if weight_exponent == 0.0 and w is not None and not e.spectral:
        return weighted_inner(e, h, w)
    _check_compatible(e, h)
    if weight_exponent == 0.0:
        total = _blocked_vdot(h.data, e.data)
        if w is not None:  # a half spectrum: weight 2, 1 on its end planes
            total = (2.0 * total
                     - _blocked_vdot(h.data[..., 0], e.data[..., 0])
                     - _blocked_vdot(h.data[..., -1], e.data[..., -1])).real
    else:
        if e.spectral:
            raise ValueError("polynomial weights apply to position-space fields")
        if np.iscomplexobj(h.data):  # a fresh conj(H), then the product
            product = np.conj(h.data)
            np.multiply(e.data, product, out=product)
        else:
            product = e.data * h.data
        weight = _inner_weight(e.grid, float(weight_exponent))
        total = np.sum(np.multiply(weight, product, out=product))
    return complex(total * e.grid.cell_volume)


def norm(e: FormField, weight_exponent: float = 0.0) -> float:
    return math.sqrt(max(l2_inner(e, e, weight_exponent).real, 0.0))
