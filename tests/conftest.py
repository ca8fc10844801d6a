"""Shared test helpers: fixture paths and a seeded expression generator."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

from asdimlab import groups
from asdimlab.bounds import FINITE_UNKNOWN, UNKNOWN, DimBound, finite

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports the package from src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout

LATTICE_POOL = (
    ("H2", 2),
    ("E2", 2),
    ("H3", 3),
    ("Nil3", 3),
    ("Sol3", 3),
    ("S2xE", 3),
    ("E4", 4),
    ("H2C", 4),
    ("Sol4_mn", 4),
    ("S2xE2", 4),
    ("SL2~xE", 4),
    ("F4", 4),
)

LABELS = (
    "flat cone",
    'label with "quotes"',
    "back\\slash",
    "tab\there",
    "two\nlines",
)


def random_bound(rng: random.Random) -> DimBound:
    upper = rng.choice((0, 1, 2, 3, 4, 5, 6, FINITE_UNKNOWN, UNKNOWN))
    if isinstance(upper, int):
        return DimBound(rng.randrange(0, upper + 1), finite(upper))
    return DimBound(rng.randrange(0, 5), upper)


def leaf_expr(rng: random.Random) -> groups.GroupExpr:
    kind = rng.randrange(7)
    if kind == 0:
        return groups.Trivial()
    if kind == 1:
        return groups.Finite(rng.choice((None, 1, 2, 60, 120)))
    if kind == 2:
        return groups.FreeAbelian(rng.randrange(0, 5))
    if kind == 3:
        return groups.SurfaceGroup(rng.choice(groups.SURFACE_KINDS))
    if kind == 4:
        name, dim = rng.choice(LATTICE_POOL)
        return groups.Lattice(name, dim, rng.random() < 0.5)
    if kind == 5:
        return groups.ProperActionOn(random_bound(rng), rng.choice(LABELS))
    witness = random_bound(rng) if rng.random() < 0.5 else None
    return groups.HyperbolicGroup(witness)


def make_expr(rng: random.Random, depth: int = 3) -> groups.GroupExpr:
    if depth <= 0:
        return leaf_expr(rng)
    kind = rng.randrange(8)
    if kind == 0:
        return groups.Product(tuple(make_expr(rng, depth - 1) for _ in range(rng.randrange(2, 4))))
    if kind == 1:
        return groups.FreeProduct(
            tuple(make_expr(rng, depth - 1) for _ in range(rng.randrange(2, 4)))
        )
    if kind == 2:
        return groups.Union(tuple(make_expr(rng, depth - 1) for _ in range(rng.randrange(1, 4))))
    if kind == 3:
        return groups.Amalgam(
            make_expr(rng, depth - 1), make_expr(rng, depth - 1), make_expr(rng, depth - 1)
        )
    if kind == 4:
        return groups.HNN(make_expr(rng, depth - 1), make_expr(rng, depth - 1))
    if kind == 5:
        return groups.Extension(make_expr(rng, depth - 1), make_expr(rng, depth - 1))
    if kind == 6:
        ambient = random_bound(rng) if rng.random() < 0.5 else None
        return groups.RelHyperbolic(
            tuple(make_expr(rng, depth - 1) for _ in range(rng.randrange(1, 3))), ambient
        )
    return leaf_expr(rng)
