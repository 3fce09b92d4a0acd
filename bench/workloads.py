"""The benchmark's workloads: operations built from a seed, with checks.

Every operation goes through a public entry point of formprobe
(``cli.main``, ``random_coclosed`` + ``solve_coderivative``,
``hodge_decompose``) looked up at call time, so a traced run sees the
wrapped bindings.  Each round runs the same operations on the same
inputs; checks run between operations, outside the timed calls.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]     # problems with the output, [] if none
    params: dict = field(default_factory=dict)   # seeds and grids used


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------

def _cli(argv: list) -> int:
    import formprobe.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return formprobe.cli.main(argv)


def _exit_problems(name: str, code) -> list:
    return [] if code == 0 else [f"{name}: exit code {code}"]


# The identity suite runs at the CLI's default seed, whatever --seed is: its
# stokes-pairing-refinement-factor identity fails on about one seed in seven
# (the refinement factor of the pairing residual falls below 8), and an
# operation that fails on some seeds only cannot be kept in the benchmark.
IDENTITY_SEED = 0


def _identities(seed: int, out_dir: Path) -> list:
    ops = []
    for dim, grid in ((3, 32), (4, 16)):
        name = f"identities-N{dim}-n{grid}"
        path = out_dir / f"{name}.json"
        argv = ["identities", "--dim", str(dim), "--grid", str(grid),
                "--seed", str(IDENTITY_SEED), "--out", str(path)]
        first = {}

        def check(code, name=name, path=path, first=first):
            problems = _exit_problems(name, code)
            data = path.read_bytes()
            if first.setdefault("bytes", data) != data:
                problems.append(f"{name}: report bytes differ between rounds")
            return problems

        ops.append(Op(name, lambda argv=argv: _cli(argv), check,
                      {"dim": dim, "grid": grid, "seed": IDENTITY_SEED}))
    return ops


ENSEMBLE = 2
# (variant, media, grid and its doubling at the CLI defaults)
ESTIMATES = (("interior", "id", 32), ("weighted", "scalar", 32),
             ("halfspace", "scalar", 48))


def _estimate(seed: int, out_dir: Path) -> list:
    ops = []
    for variant, media, grid in ESTIMATES:
        name = f"estimate-{variant}-{media}"
        path = out_dir / f"{name}.json"
        argv = ["estimate", "--variant", variant, "--media", media,
                "--ensemble", str(ENSEMBLE), "--seed", str(seed),
                "--out", str(path)]

        def check(code, name=name, path=path, variant=variant):
            problems = _exit_problems(name, code)
            if problems:
                return problems
            report = json.loads(path.read_text(encoding="utf-8"))
            ratios = [s["ratio"] for s in report["samples"]]
            if len(ratios) != ENSEMBLE:
                problems.append(f"{name}: {len(ratios)} samples, "
                                f"expected {ENSEMBLE}")
            if not all(math.isfinite(r) and r > 0.0 for r in ratios):
                problems.append(f"{name}: non-finite or zero ratio")
            if variant == "interior":
                problems += checks.check_gaffney_ratios(ratios)
            return problems

        ops.append(Op(name, lambda argv=argv: _cli(argv), check,
                      {"dim": 3, "rank": 1, "grid": grid,
                       "grid_refined": 2 * grid, "media": media,
                       "ensemble": ENSEMBLE, "seed": seed}))
    return ops


# ---------------------------------------------------------------------------
# co-derivative solves and material-weighted splits
# ---------------------------------------------------------------------------

SOLVE_HALF_LENGTH = 2.0     # criterion 07's box
SOLVE_KMAX = 4
# (dim, points, sample indices); the rank of sample i is i % dim
SOLVES = ((3, 16, range(6)), (4, 16, range(4)), (4, 32, range(1)))

SPLIT_DIM, SPLIT_POINTS, SPLIT_HALF_LENGTH, SPLIT_RANK = 3, 32, 3.0, 1
SPLIT_WIDTH = 1.0
SPLIT_AMPLITUDES = (0.5, 1.0, 1.1, 3.0)
# The split field does not depend on --seed: the splits at amplitudes 1.1
# and 3.0 raise every time (damping-one iteration with reference medium 1),
# and a failure kept in the benchmark must not depend on the seed.
SPLIT_FIELD_SEED = 2011


def solve_seed(seed: int, dim: int, index: int) -> int:
    return 1_000_000 * seed + 70_000 * dim + index


def _hodge(seed: int, out_dir: Path) -> list:
    from formprobe import decompose, manufactured, media
    from formprobe.fields import GridSpec

    ops = []
    for dim, points, samples in SOLVES:
        grid = GridSpec(dim, SOLVE_HALF_LENGTH, points)
        for i in samples:
            rank, sample_seed = i % dim, solve_seed(seed, dim, i)

            def run(grid=grid, rank=rank, sample_seed=sample_seed):
                e = manufactured.random_coclosed(grid, rank, sample_seed,
                                                 kmax=SOLVE_KMAX)
                return e, decompose.solve_coderivative(e)

            def check(result, rank=rank):
                e, solution = result
                return checks.check_solve(e.data, solution.potential.data,
                                          rank, SOLVE_HALF_LENGTH)

            ops.append(Op(f"solve-N{dim}-n{points}-q{rank}-i{i}", run, check,
                          {"dim": dim, "grid": points, "rank": rank,
                           "seed": sample_seed, "kmax": SOLVE_KMAX}))

    grid = GridSpec(SPLIT_DIM, SPLIT_HALF_LENGTH, SPLIT_POINTS)
    e = manufactured.random_band_limited(grid, SPLIT_RANK, SPLIT_FIELD_SEED)
    split_tol = inspect.signature(decompose.hodge_decompose).parameters["tol"].default
    r2 = checks.coordinates_sq(SPLIT_DIM, SPLIT_POINTS, SPLIT_HALF_LENGTH)
    for amplitude in SPLIT_AMPLITUDES:
        eps = media.scalar_catalog(grid, "gauss_well", amplitude=amplitude,
                                   width=SPLIT_WIDTH)
        eps_values = 1.0 + amplitude * np.exp(-SPLIT_WIDTH * r2)

        def run(eps=eps):
            return decompose.hodge_decompose(e, eps)

        def check(split, eps_values=eps_values, name=f"split-a{amplitude}"):
            problems = checks.check_weighted_split(
                e.data, split.exact_part.data, split.coexact_part.data,
                split.mean_part.data, SPLIT_RANK, SPLIT_HALF_LENGTH,
                eps_values, split_tol)
            return [f"{name}: {p}" for p in problems]

        ops.append(Op(f"split-a{amplitude}", run, check,
                      {"dim": SPLIT_DIM, "grid": SPLIT_POINTS,
                       "rank": SPLIT_RANK, "seed": SPLIT_FIELD_SEED,
                       "material": f"gauss_well a={amplitude} b={SPLIT_WIDTH}",
                       "tol": split_tol}))
    return ops


# workload -> build(seed, output dir) -> [Op]; why each exists: README.md
WORKLOADS = {"identities": _identities, "estimate": _estimate, "hodge": _hodge}
