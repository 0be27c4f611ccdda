"""Analytic test objectives, including noisy, discontinuous, and failing
variants that exercise the usual black-box tuning hazards."""

from __future__ import annotations

import math

import numpy as np

from ..manager import check_keys, check_param
from ..space import CategoricalVariable, ContinuousVariable, IntegerVariable, Point, SearchSpace
from ..trials import EvaluationFailed


class SpaceMismatchError(ValueError):
    """Objective cannot be evaluated on the configured search space."""


# Builtin name -> the params it takes.
BUILTIN_PARAMS = {
    "sphere": (),
    "rastrigin": (),
    "rosenbrock": (),
    "branin": (),
    "mixed_synthetic": (),
    "noisy": ("base", "base_params", "sigma"),
    "cliff": ("base", "base_params", "fail_var", "fail_above"),
}


def _numeric_values(space: SearchSpace, p: Point) -> np.ndarray:
    return np.array([float(p.values[i]) for i in space.numeric_indices])


def sphere(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def rosenbrock(x: np.ndarray) -> float:
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def rastrigin(x: np.ndarray) -> float:
    return float(10.0 * len(x) + np.sum(x * x - 10.0 * np.cos(2.0 * math.pi * x)))


def branin(x: np.ndarray) -> float:
    a = 1.0
    b = 5.1 / (4.0 * math.pi**2)
    c = 5.0 / math.pi
    r = 6.0
    s = 10.0
    t = 1.0 / (8.0 * math.pi)
    return float(a * (x[1] - b * x[0] ** 2 + c * x[0] - r) ** 2 + s * (1 - t) * math.cos(x[0]) + s)


BRANIN_MINIMUM = 0.3978873577297384  # attained at (pi, 2.275) among others

BRANIN_SPACE = SearchSpace(
    [ContinuousVariable("x1", -5.0, 10.0), ContinuousVariable("x2", 0.0, 15.0)]
)


def mixed_synthetic(space: SearchSpace, p: Point) -> float:
    """Sum of squares over continuous values, a quadratic integer term pulled
    toward 3, and a per-level categorical penalty. Minimum 0 at x=0, k=3,
    first level."""
    total = 0.0
    for i, var in enumerate(space.variables):
        v = p.values[i]
        if isinstance(var, ContinuousVariable):
            total += float(v) ** 2
        elif isinstance(var, IntegerVariable):
            total += 0.5 * (int(v) - 3) ** 2
        else:
            assert isinstance(var, CategoricalVariable)
            total += 1.5 * var.levels.index(v)
    return total


MIXED_SYNTHETIC_SPACE = SearchSpace(
    [
        ContinuousVariable("x1", -5.0, 5.0),
        ContinuousVariable("x2", -5.0, 5.0),
        IntegerVariable("k", 0, 10),
        CategoricalVariable("c", ("a", "b", "c")),
    ]
)


# Builtins evaluated on the point's numeric values, in variable order.
_NUMERIC = {"sphere": sphere, "rastrigin": rastrigin, "rosenbrock": rosenbrock, "branin": branin}


class BuiltinObjective:
    """Callable (point, eval_id) -> value for a named analytic function.

    noisy(base, sigma) adds Gaussian noise seeded per (run seed, eval_id) so
    runs stay reproducible; cliff(base, fail_var, fail_above) raises a failure
    inside the declared region, simulating a hidden constraint.
    """

    def __init__(self, name: str, space: SearchSpace, params: dict | None = None, seed: int = 0):
        self.name = name
        self.space = space
        self.seed = seed
        if not isinstance(name, str) or name not in BUILTIN_PARAMS:
            raise SpaceMismatchError(f"unknown builtin objective {name!r}")
        params = self.params = check_keys(f"{name} params", {} if params is None else params, BUILTIN_PARAMS[name])
        # Everything that depends on the name is decided here, once.
        if name == "mixed_synthetic":
            self._evaluate = lambda p, eval_id: mixed_synthetic(space, p)
            return
        if name in _NUMERIC:
            if name == "branin":
                if len(space.continuous_indices) != 2 or len(space.variables) != 2:
                    raise SpaceMismatchError("branin needs exactly 2 continuous variables")
            elif space.categorical_indices:
                raise SpaceMismatchError(f"{name} needs a purely numeric space")
            elif name == "rosenbrock" and len(space.numeric_indices) < 2:
                raise SpaceMismatchError("rosenbrock needs at least 2 numeric variables")
            fn = _NUMERIC[name]
            self._evaluate = lambda p, eval_id: fn(_numeric_values(space, p))
            return
        if name == "noisy":
            sigma = params.get("sigma", 0.1)
            check_param("noisy.sigma", sigma, integer=False, minimum=0)
        base = BuiltinObjective(params.get("base", "sphere"), space, params.get("base_params"), seed)
        if name == "noisy":
            sigma = float(sigma)

            def evaluate(p: Point, eval_id: int) -> float:
                rng = np.random.default_rng((seed, eval_id))
                return base(p, eval_id) + sigma * float(rng.standard_normal())

        else:
            fail_var = params.get("fail_var", 0)
            if isinstance(fail_var, str):
                if fail_var not in space.names:
                    raise SpaceMismatchError(f"cliff.fail_var {fail_var!r} names no variable of the space")
                fail_var = space.index_of(fail_var)
            check_param("cliff.fail_var", fail_var, integer=True, minimum=0)
            if fail_var >= len(space.variables) or fail_var in space.categorical_indices:
                raise SpaceMismatchError(f"cliff.fail_var {fail_var} is not a numeric variable of the space")
            check_param("cliff.fail_above", params.get("fail_above"), integer=False, minimum=-math.inf)
            fail_above = float(params["fail_above"])

            def evaluate(p: Point, eval_id: int) -> float:
                if float(p.values[fail_var]) > fail_above:
                    raise EvaluationFailed("hidden_constraint")
                return base(p, eval_id)

        self._evaluate = evaluate

    def __call__(self, p: Point, eval_id: int = 0) -> float:
        return self._evaluate(p, eval_id)
