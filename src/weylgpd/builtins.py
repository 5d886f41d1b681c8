"""Built-in Cartan graphs and root-system tables.

Finite tables are generated by realizing the standard graph of their Cartan
matrix rather than checked in as coordinate dumps, so table-level regression
data stays an independent cross-check.  The two affine rank-2 builtins come
from closed formulas: the root family e_i + k*gamma and its line-by-line
rescaling by k+1, both truncated symmetrically and negation-closed.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING

from ._rational import ONE, Rat
from .cartan import CartanGraph, GeneralizedCartanMatrix
from .errors import ParseError
from .exactlin import vec

if TYPE_CHECKING:
    from .arrangement import RootSystemTable

BUILTIN_GCMS: dict[str, tuple] = {
    "a2": ((2, -1), (-1, 2)),
    "b2": ((2, -1), (-2, 2)),
    "g2": ((2, -1), (-3, 2)),
    "a3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "b3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "f4": ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)),
    "aff-a1": ((2, -2), (-2, 2)),
    "aff-a1-rescaled": ((2, -2), (-2, 2)),
}

TABLE_NAMES = ("a2", "b2", "g2", "a3", "b3", "f4", "aff-a1", "aff-a1-rescaled")

#: Simple roots of the rank-4 exceptional table, as covectors under the
#: standard-inner-product identification.
F4_SIMPLE_ROOTS = (
    vec((0, 1, -1, 0)),
    vec((0, 0, 1, -1)),
    vec((0, 0, 0, 1)),
    vec(("1/2", "-1/2", "-1/2", "-1/2")),
)


def builtin_graph(name: str) -> CartanGraph:
    try:
        rows = BUILTIN_GCMS[name]
    except KeyError:
        raise ParseError(f"unknown builtin graph {name!r}; choose from {sorted(BUILTIN_GCMS)}")
    return CartanGraph.standard(GeneralizedCartanMatrix.from_rows(rows))


def f4_table() -> RootSystemTable:
    """The 48 rank-4 roots: 24 with two +-1 entries, 8 with one, 16 all-halves."""
    from .arrangement import RootSystemTable, Spherical

    roots = []
    for i, j in itertools.combinations(range(4), 2):
        for si in (1, -1):
            for sj in (1, -1):
                entry = [0, 0, 0, 0]
                entry[i], entry[j] = si, sj
                roots.append(tuple(entry))
    for i in range(4):
        for s in (1, -1):
            entry = [0, 0, 0, 0]
            entry[i] = s
            roots.append(tuple(entry))
    half = Rat(1, 2)
    for signs in itertools.product((1, -1), repeat=4):
        roots.append(tuple(half * s for s in signs))
    assert len(roots) == 48
    # Seed inside the chamber whose walls are the four simple roots.
    seed = vec(("62/5", "21/5", "3", "8/5"))
    return RootSystemTable(4, roots, cone=Spherical(), seed_hint=seed)


def affine_a1_table(k_max: int = 8, rescaled: bool = False) -> RootSystemTable:
    """Roots +-(scale)*(e_i + k*gamma) for 0 <= k <= k_max, gamma = e_1 + e_2.

    scale is 1 for the plain family and k+1 for the rescaled one; both share
    the same hyperplanes, but only the plain family is crystallographic.
    """
    from .arrangement import Affine, RootSystemTable

    gamma = (ONE, ONE)
    roots = []
    for k in range(k_max + 1):
        scale = Rat(k + 1) if rescaled else ONE
        base_1 = (ONE + k, Rat(k))  # e_1 + k*gamma
        base_2 = (Rat(k), ONE + k)  # e_2 + k*gamma
        for base in (base_1, base_2):
            scaled = tuple(scale * c for c in base)
            roots.append(scaled)
            roots.append(tuple(-c for c in scaled))
    seed = (Rat(4, 3), Rat(5, 3))
    return RootSystemTable(2, roots, cone=Affine(gamma), seed_hint=seed)


@functools.lru_cache(maxsize=None)
def builtin_table(name: str, depth: int = 8) -> RootSystemTable:
    """The builtin table `name` (`depth`: the affine tables' k_max).  a2,
    b2, g2, a3 and b3 are of finite type, their longest words of lengths 3,
    4, 6, 6 and 9, so their realizations at depth 32 are complete."""
    if name == "f4":
        return f4_table()
    if name == "aff-a1":
        return affine_a1_table(k_max=depth)
    if name == "aff-a1-rescaled":
        return affine_a1_table(k_max=depth, rescaled=True)
    if name in ("a2", "b2", "g2", "a3", "b3"):
        from .realization import realize

        return realize(builtin_graph(name), depth=32).table
    raise ParseError(f"unknown builtin table {name!r}; choose from {TABLE_NAMES}")
