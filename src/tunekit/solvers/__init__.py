"""Search method implementations and the type-name table the CLI uses."""

from __future__ import annotations

import math
from typing import Callable

from ..space import SearchSpace
from .bayes import BayesConfig, BayesSearch
from .direct import DirectSearch
from .hybrid import HybridConfig, HybridSearch
from .neldermead import NelderMeadSolver
from .samplers import LhsSearch, RandomSearch


def hybrid_search(space: SearchSpace, seed: int, **params) -> HybridSearch:
    return HybridSearch(space, seed, HybridConfig(**params))


def bayes_search(space: SearchSpace, seed: int, **params) -> BayesSearch:
    return BayesSearch(space, seed, BayesConfig(**params))


def direct_search(space: SearchSpace, seed: int) -> DirectSearch:
    return DirectSearch(space)


def direct_nm_search(space: SearchSpace, seed: int, theta: float | None = None) -> DirectSearch:
    """DIRECT that refines boxes smaller than theta (default 0.05 * sqrt(d)) by Nelder-Mead."""
    if theta is None:
        theta = 0.05 * math.sqrt(len(space.variables))
    return DirectSearch(space, theta=theta)


# Type name -> constructor called as (space, seed, **params). The constructor's
# signature is the params schema: an unknown param raises TypeError and a bad
# value ValueError.
SOLVERS: dict[str, Callable] = {
    "random": RandomSearch,
    "lhs": LhsSearch,
    "hybrid": hybrid_search,
    "bayes": bayes_search,
    "direct": direct_search,
    "neldermead": NelderMeadSolver,
    "direct-nm": direct_nm_search,
}


def make_solver(solver_type: str, space: SearchSpace, seed: int, params: dict | None = None):
    """Build a solver by its config type name."""
    return SOLVERS[solver_type](space, seed, **(params or {}))


__all__ = [
    "BayesConfig",
    "BayesSearch",
    "DirectSearch",
    "HybridConfig",
    "HybridSearch",
    "LhsSearch",
    "NelderMeadSolver",
    "RandomSearch",
    "SOLVERS",
    "make_solver",
]
