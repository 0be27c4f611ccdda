"""GP surrogate: posterior algebra against an independent dense solve,
hyperparameter fallbacks, acquisition behavior, and Branin quality."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from helpers import (
    dense_believer_posterior,
    dense_posterior_oracle,
    dense_posterior_oracle_many,
    reference_propose,
    run_python,
)
from tunekit.cache import canonical_key
from tunekit.manager import TuningManager
from tunekit.objectives import BRANIN_MINIMUM, BRANIN_SPACE, BuiltinObjective
from tunekit.sampling import SampleRequest, lhs_sample
from tunekit.solvers import bayes
from tunekit.solvers.bayes import (
    TRIL_LEAF,
    BayesConfig,
    BayesSearch,
    BelieverVariance,
    GPModel,
    fit_gp,
    propose,
    tril_inverse,
    trim_records,
)
from tunekit.space import (
    CategoricalVariable,
    ContinuousVariable,
    IntegerVariable,
    Point,
    SearchSpace,
    encode,
    mixed_sqdist_matrix,
)
from tunekit.trials import Budget, TrialRecord

UNIT1 = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
BOX3 = SearchSpace([ContinuousVariable(f"x{i}", -2.0, 2.0) for i in range(3)])
UNIT5 = SearchSpace([ContinuousVariable(f"x{i}", 0.0, 1.0) for i in range(5)])
MIXED = SearchSpace(
    [
        ContinuousVariable("x", 0.0, 1.0),
        IntegerVariable("k", 0, 6),
        CategoricalVariable("c", ("a", "b", "c")),
    ]
)


def rec(space: SearchSpace, values, objective: float, eval_id: int, ok: bool = True) -> TrialRecord:
    from tunekit.trials import PENALTY_OBJECTIVE

    return TrialRecord(
        point=Point(values),
        key=canonical_key(space, Point(values)),
        encoded=encode(space, Point(values)),
        objective=objective if ok else PENALTY_OBJECTIVE,
        status="ok" if ok else "fail",
        solver_id="t",
        iteration=1,
        eval_id=eval_id,
        fail_reason=None if ok else "x",
    )


def random_records(space: SearchSpace, n: int, rng: np.random.Generator) -> list[TrialRecord]:
    """n LHS points with a smooth objective of their encoding plus noise."""
    points = lhs_sample(space, SampleRequest(n, int(rng.integers(0, 2**31))))
    return [
        rec(space, p.values, float(np.sum((encode(space, p) - 0.3) ** 2) + 0.01 * rng.normal()), i + 1)
        for i, p in enumerate(points)
    ]


# -- fit heuristics ------------------------------------------------------------


def test_fit_requires_two_ok_records():
    from tunekit.solvers.bayes import GPFitError

    with pytest.raises(GPFitError):
        fit_gp(UNIT1, [rec(UNIT1, [0.5], 1.0, 1)])
    with pytest.raises(GPFitError):
        fit_gp(UNIT1, [rec(UNIT1, [0.2], 0.0, 1, ok=False), rec(UNIT1, [0.8], 0.0, 2, ok=False)])


def test_zero_variance_fallback():
    model = fit_gp(UNIT1, [rec(UNIT1, [0.2], 3.0, 1), rec(UNIT1, [0.8], 3.0, 2)])
    assert model.signal_var == 1.0


def test_failures_excluded_from_training():
    records = [
        rec(UNIT1, [0.1], 1.0, 1),
        rec(UNIT1, [0.5], 2.0, 2),
        rec(UNIT1, [0.9], 0.0, 3, ok=False),
    ]
    model = fit_gp(UNIT1, records)
    assert len(model.train_x) == 2


def test_cap_trims_to_limit():
    records = [rec(UNIT1, [i / 400], float(i), i + 1) for i in range(400)]
    model = fit_gp(UNIT1, records, cap=300)
    assert len(model.train_x) == 300


def test_trim_keeps_best_and_most_recent():
    records = [rec(UNIT1, [i / 10], float(i), i + 1) for i in range(10)]
    kept = trim_records(records, cap=4)
    ids = [r.eval_id for r in kept]
    assert ids == [1, 2, 9, 10]  # two best objectives plus the two most recent


def test_median_length_scale():
    records = [rec(UNIT1, [0.0], 0.0, 1), rec(UNIT1, [0.5], 1.0, 2), rec(UNIT1, [1.0], 2.0, 3)]
    model = fit_gp(UNIT1, records)
    assert model.length_scale == pytest.approx(0.5)  # median of {0.5, 0.5, 1.0}


# -- posterior ---------------------------------------------------------------------


def test_interpolation_at_training_points():
    # well-separated inputs keep the kernel matrix conditioned, so the
    # posterior interpolates up to the 1e-6-scaled jitter
    xs = [0.0, 0.5, 1.0]
    ys = [2.5, -1.8, 1.2]
    records = [rec(UNIT1, [x], y, i + 1) for i, (x, y) in enumerate(zip(xs, ys))]
    model = fit_gp(UNIT1, records)
    for r in records:
        (mu,), _ = model.posterior_many(encode(UNIT1, r.point)[None])
        assert abs(mu - r.objective) <= 1e-3 * abs(r.objective) + 1e-6


def test_far_field_reverts_to_prior():
    space = SearchSpace([ContinuousVariable("x", 0.0, 1000.0)])
    records = [rec(space, [0.0], 5.0, 1), rec(space, [1.0], 7.0, 2)]
    model = fit_gp(space, records)
    (mu,), (var,) = model.posterior_many(encode(space, Point([1000.0]))[None])  # ~1000 length scales away
    assert mu == pytest.approx(model.prior_mean, rel=0.01)
    assert var == pytest.approx(model.signal_var, rel=0.01)


def test_gp_rejects_a_noise_variance_that_is_not_positive():
    # the jitter starts at noise_var and grows tenfold per failed
    # factorization, so from 0 it never grew: a singular kernel (two equal
    # rows) with zero noise kept the fit looping, hence the child process
    code = """
import numpy as np
from tunekit.solvers.bayes import GPModel
from tunekit.space import ContinuousVariable, SearchSpace

space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
for noise_var in (0.0, -1e-6, float("nan")):
    try:
        GPModel(space, np.array([[0.5], [0.5]]), np.array([0.0, 1.0]), 1.0, 1.0, noise_var)
    except ValueError as exc:
        print(exc)
"""
    assert run_python(code, timeout=30).splitlines() == [
        f"noise_var must be positive, got {v}" for v in (0.0, -1e-6, "nan")
    ]


def test_two_point_symmetric_midpoint():
    # x = {0, 1}, y = {0, 1}, ell = 1, sigma_f^2 = 1: the midpoint posterior
    # mean equals the prior mean 0.5 by symmetry; verified against the oracle
    model = GPModel(
        UNIT1,
        np.array([[0.0], [1.0]]),
        np.array([0.0, 1.0]),
        length_scale=1.0,
        signal_var=1.0,
        noise_var=1e-6,
    )
    (mu,), (var,) = model.posterior_many(encode(UNIT1, Point([0.5]))[None])
    mu_oracle, var_oracle = dense_posterior_oracle(model, UNIT1, np.array([0.5]))
    assert abs(mu - mu_oracle) <= 1e-10
    assert abs(var - var_oracle) <= 1e-10
    assert mu == pytest.approx(0.5, abs=1e-9)


def test_posterior_matches_dense_oracle_100_cases():
    rng = np.random.default_rng(77)
    for case in range(100):
        n = int(rng.integers(2, 6))
        space = MIXED
        records = []
        for i in range(n):
            values = [
                float(rng.uniform(0, 1)),
                int(rng.integers(0, 7)),
                ("a", "b", "c")[rng.integers(0, 3)],
            ]
            records.append(rec(space, values, float(rng.normal()), i + 1))
        try:
            model = fit_gp(space, records)
        except Exception:
            continue  # duplicate points can defeat factorization; not this test's target
        query_point = Point(
            [float(rng.uniform(0, 1)), int(rng.integers(0, 7)), ("a", "b", "c")[rng.integers(0, 3)]]
        )
        query = encode(space, query_point)
        (mu,), (var,) = model.posterior_many(query[None])
        mu_o, var_o = dense_posterior_oracle(model, space, query)
        assert abs(mu - mu_o) <= 1e-8 * (1 + abs(mu_o)), f"case {case}"
        assert abs(var - var_o) <= 1e-8 * (1 + abs(var_o)), f"case {case}"


def test_variance_bounds():
    rng = np.random.default_rng(9)
    records = [rec(UNIT1, [float(x)], float(rng.normal()), i + 1) for i, x in enumerate(rng.uniform(0, 1, 12))]
    model = fit_gp(UNIT1, records)
    queries = np.linspace(0, 1, 101)[:, None]
    _, var = model.posterior_many(queries)
    assert np.all(var >= 0.0)
    assert np.all(var <= model.signal_var * (1 + 1e-9))


@pytest.mark.parametrize("n", [1, TRIL_LEAF - 1, TRIL_LEAF, TRIL_LEAF + 1, 2 * TRIL_LEAF + 1, 300])
def test_tril_inverse_inverts_a_kernel_factor(n):
    # sizes at and around the leaf cutoff, and the largest fit
    rng = np.random.default_rng(n)
    x = rng.uniform(size=(n, 5))
    kernel = np.exp(-mixed_sqdist_matrix(UNIT5, x, x) / 0.5) + 1e-6 * np.eye(n)
    lower = np.linalg.cholesky(kernel)
    inverse = tril_inverse(lower)
    assert np.all(np.triu(inverse, 1) == 0.0)
    assert np.max(np.abs(inverse @ lower - np.eye(n))) <= 1e-9


def assert_matches_dense_oracle(model: GPModel, space: SearchSpace, queries: np.ndarray) -> None:
    """Posterior mean within 1e-6 of the signal sd and variance within 1e-6
    of the signal variance of the dense-solve oracle."""
    mean, var = model.posterior_many(queries)
    mean_o, var_o = dense_posterior_oracle_many(model, space, queries)
    assert np.max(np.abs(mean - mean_o)) <= 1e-6 * math.sqrt(model.signal_var)
    assert np.max(np.abs(var - var_o)) <= 1e-6 * model.signal_var


def test_300_record_fit_matches_dense_oracle():
    rng = np.random.default_rng(300)
    records = random_records(UNIT5, 300, rng)
    model = fit_gp(UNIT5, records)
    assert len(model.train_x) == 300 and model.jitter == model.noise_var
    queries = np.concatenate([rng.uniform(size=(6, 5)), model.train_x[:2] + 1e-3])
    assert_matches_dense_oracle(model, UNIT5, queries)


def test_escalated_jitter_fit_matches_dense_oracle():
    # 40 of 300 rows sit within 1e-9 of another, so their kernel rows are
    # equal to working precision and the factorization fails at a noise
    # variance of 1e-16 of the signal variance
    rng = np.random.default_rng(40)
    base = rng.uniform(size=(260, 5))
    x = np.concatenate([base, base[:40] + 1e-9 * rng.normal(size=(40, 5))])
    y = np.sum((x - 0.3) ** 2, axis=1)
    signal_var = float(np.var(y, ddof=1))
    model = GPModel(UNIT5, x, y, length_scale=0.7, signal_var=signal_var, noise_var=1e-16 * signal_var)
    assert model.jitter > model.noise_var
    queries = np.concatenate([rng.uniform(size=(6, 5)), x[-2:] + 1e-3])
    assert_matches_dense_oracle(model, UNIT5, queries)


@pytest.mark.parametrize("n", [3, 20, 120, 300])
def test_batched_posterior_rows_equal_one_row_calls(n):
    # 259 rows is a propose pool: 256 candidates and 3 refined points
    rng = np.random.default_rng(n)
    for space in (BOX3, MIXED):
        model = fit_gp(space, random_records(space, n, rng))
        for batch in (2, 3, 7, 64, 256, 259):
            points = lhs_sample(space, SampleRequest(batch, int(rng.integers(0, 2**31))))
            query = np.stack([encode(space, p) for p in points])
            mean, var = model.posterior_many(query)
            for i, row in enumerate(query):
                mean_1, var_1 = model.posterior_many(row[None, :])
                assert np.array_equal(mean[i : i + 1], mean_1), f"mean of row {i} of {batch}"
                assert np.array_equal(var[i : i + 1], var_1), f"variance of row {i} of {batch}"


# -- propose -------------------------------------------------------------------------


def test_kappa_zero_minimizes_posterior_mean():
    records = [rec(UNIT1, [x], (x - 0.3) ** 2, i + 1) for i, x in enumerate((0.0, 0.5, 1.0))]
    model = fit_gp(UNIT1, records)
    rng = np.random.default_rng(1)
    proposals = propose(model, UNIT1, 1, kappa=0.0, rng=rng, seen=set(), restarts=2)
    assert len(proposals) == 1
    (mu_star,), _ = model.posterior_many(encode(UNIT1, proposals[0][0])[None])
    grid = np.linspace(0, 1, 513)[:, None]
    mean_grid, _ = model.posterior_many(grid)
    assert mu_star <= float(mean_grid.min()) + 1e-6


def test_huge_kappa_explores_far_from_data():
    space = SearchSpace([ContinuousVariable("x", 0.0, 1.0)])
    records = [rec(space, [x], x, i + 1) for i, x in enumerate((0.0, 0.02, 0.04))]
    model = fit_gp(space, records)
    rng = np.random.default_rng(2)
    kappa = 1e6
    proposals = propose(model, space, 1, kappa=kappa, rng=rng, seen=set(), restarts=2)
    x_star = float(proposals[0][0].values[0])
    # sigma dominates: the proposal sits many length scales from the cluster
    assert min(abs(x_star - r.point.values[0]) for r in records) >= 10 * model.length_scale
    # LCB at the proposal is at least as low as at every raw grid candidate
    (mu_star,), (var_star,) = model.posterior_many(encode(space, proposals[0][0])[None])
    grid = np.linspace(0, 1, 257)[:, None]
    mu, var = model.posterior_many(grid)
    assert mu_star - kappa * math.sqrt(var_star) <= float(np.min(mu - kappa * np.sqrt(var))) + 1e-6


def test_proposal_avoids_seen_points():
    model = GPModel(
        UNIT1, np.array([[0.5]]), np.array([1.0]), length_scale=1.0, signal_var=1.0, noise_var=1e-6
    )
    seen = {canonical_key(UNIT1, Point([0.5]))}
    rng = np.random.default_rng(3)
    proposals = propose(model, UNIT1, 1, kappa=0.0, rng=rng, seen=seen, restarts=1)
    assert len(proposals) == 1
    point, key = proposals[0]
    assert key == canonical_key(UNIT1, point)
    assert key not in seen


@pytest.mark.parametrize("space", [BOX3, MIXED], ids=["continuous", "mixed"])
def test_propose_matches_restarts_run_alone(space):
    # MIXED refines its one continuous channel with the integer and
    # categorical channels frozen at each candidate's values; one pick takes
    # no fantasy, so it must match the reference bit for bit
    for seed in range(4):
        records = random_records(space, 25, np.random.default_rng(seed))
        model = fit_gp(space, records)
        seen = {r.key for r in records}
        got = propose(model, space, 1, 2.0, np.random.default_rng(100 + seed), seen, restarts=3)
        want, _ = reference_propose(model, space, 1, 2.0, np.random.default_rng(100 + seed), seen, 3)
        assert [(p.values, key) for p, key in got] == [(p.values, key) for p, key in want], f"seed {seed}"


@pytest.mark.parametrize("space", [BOX3, MIXED], ids=["continuous", "mixed"])
def test_batch_picks_match_dense_refit_believer(space):
    for seed in range(4):
        records = random_records(space, 25, np.random.default_rng(seed))
        model = fit_gp(space, records)
        seen = {r.key for r in records}
        got = propose(model, space, 5, 2.0, np.random.default_rng(100 + seed), seen, restarts=3)
        want, _ = reference_propose(model, space, 5, 2.0, np.random.default_rng(100 + seed), seen, 3)
        assert len(got) == 5
        assert [(p.values, key) for p, key in got] == [(p.values, key) for p, key in want], f"seed {seed}"


@pytest.mark.parametrize("space", [BOX3, MIXED], ids=["continuous", "mixed"])
def test_believer_variances_match_dense_refit(space):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        model = fit_gp(space, random_records(space, 25, rng))
        points = lhs_sample(space, SampleRequest(64, seed))
        rows = np.stack([encode(space, p) for p in points])
        mean, var = model.posterior_many(rows)
        believer = BelieverVariance(model, rows, model.kernel_rows(rows), var)
        picks = [int(b) for b in rng.choice(len(rows), size=4, replace=False)]
        for j, b in enumerate(picks):
            believer.add(b)
            dense_mean, dense_var = dense_believer_posterior(model, space, rows[picks[: j + 1]], rows)
            assert np.allclose(believer.var, dense_var, rtol=0, atol=1e-8 * model.signal_var), f"seed {seed}"
            # the fantasies' values are posterior means, so the mean stays put
            assert np.allclose(mean, dense_mean, rtol=1e-8, atol=1e-8 * model.signal_var), f"seed {seed}"
        assert np.all(believer.var <= var)
        assert np.all(believer.var[picks] <= 2 * model.jitter)


def test_believer_given_proposes_kernel_rows_matches_one_given_fresh_rows(monkeypatch):
    # propose computes the pool's kernel rows once, the refined rows' part
    # after the refinement, and hands them to the believer; a believer given
    # k(rows, X) computed afresh must condition to the same bits
    records = random_records(UNIT5, 300, np.random.default_rng(21))
    model = fit_gp(UNIT5, records)
    made = []

    class Recording(BelieverVariance):
        def __init__(self, model, rows, k_rows, var):
            super().__init__(model, rows, k_rows, var)
            self.start = (rows.copy(), k_rows.copy(), var.copy())
            self.steps = []
            made.append(self)

        def add(self, b):
            super().add(b)
            self.steps.append((b, self.var.copy()))

    monkeypatch.setattr(bayes, "BelieverVariance", Recording)
    got = propose(model, UNIT5, 5, 2.0, np.random.default_rng(22), {r.key for r in records}, restarts=3)
    assert len(got) == 5 and len(made) == 1 and len(made[0].steps) == 4
    rows, k_rows, var = made[0].start
    assert len(model.train_x) == 300 and len(rows) == 256 + 3
    fresh = BelieverVariance(model, rows, model._kernel(rows, model.train_x), var)
    assert fresh._k_rows.tobytes() == k_rows.tobytes()
    for b, var_after in made[0].steps:
        fresh.add(b)
        assert fresh.var.tobytes() == var_after.tobytes()


def test_batch_spreads_where_a_static_ranking_crowds():
    # data on [0, 0.6] leaves sigma largest near x = 1, so the five best
    # candidates of one unchanged LCB ranking all sit there; each fantasy
    # shrinks sigma near its pick, so the believer's later picks move away
    records = [rec(UNIT1, [x], float(np.sin(7 * x)), i + 1) for i, x in enumerate(np.linspace(0, 0.6, 7))]
    model = fit_gp(UNIT1, records)
    got = propose(model, UNIT1, 5, 5.0, np.random.default_rng(0), set(), restarts=0)
    picks = [p.values[0] for p, _ in got]
    seed = int(np.random.default_rng(0).integers(0, 2**63))
    candidates = np.array([p.values[0] for p in lhs_sample(UNIT1, SampleRequest(256, seed))])
    mean, var = model.posterior_many(candidates[:, None])
    static = candidates[np.argsort(mean - 5.0 * np.sqrt(var), kind="stable")[:5]]
    assert picks[0] == static[0]
    assert np.ptp(static) < 0.05
    assert np.ptp(picks) > 0.25


def test_propose_posterior_calls_follow_longest_simplex():
    records = random_records(BOX3, 25, np.random.default_rng(11))
    model = fit_gp(BOX3, records)
    rows_per_call: list[int] = []
    kernel_rows_per_call: list[int] = []
    posterior_of_kernel_rows, kernel_rows = model.posterior_of_kernel_rows, model.kernel_rows

    def counting(k_rows):
        rows_per_call.append(len(k_rows))
        return posterior_of_kernel_rows(k_rows)

    def counting_kernel(query):
        kernel_rows_per_call.append(len(query))
        return kernel_rows(query)

    model.posterior_of_kernel_rows, model.kernel_rows = counting, counting_kernel
    propose(model, BOX3, 5, 2.0, np.random.default_rng(12), set(), restarts=3)
    del model.posterior_of_kernel_rows, model.kernel_rows
    _, steps = reference_propose(model, BOX3, 5, 2.0, np.random.default_rng(12), set(), 3)
    assert len(steps) == 3 and sum(steps) > max(steps)
    # the candidate set, one call per lockstep step, then the refined points;
    # the believer's fantasies make no posterior call
    assert len(rows_per_call) == 2 + max(steps)
    assert rows_per_call[0] == 256
    assert rows_per_call[-1] == 3
    # the first kernel call covers the candidates and the refined points'
    # places, and the believer reuses those rows: no kernel call of its own
    assert kernel_rows_per_call == [256 + 3] + rows_per_call[1:]


# -- solver binding ---------------------------------------------------------------------


def test_scipy_linalg_loads_with_a_bayes_solver_not_with_the_cli():
    # scipy costs about a fifth of a second to import, and the GP needs only
    # numpy: a Bayes tune through the CLI, which reaches fit_gp and propose,
    # loads no scipy module at all
    code = """
import json, sys, tempfile
from pathlib import Path
import tunekit.cli
from tunekit.solvers import bayes

calls = {"fit_gp": 0, "propose": 0}
for name in calls:
    inner = getattr(bayes, name)
    def counting(*args, _inner=inner, _name=name, **kwargs):
        calls[_name] += 1
        return _inner(*args, **kwargs)
    setattr(bayes, name, counting)

config = {
    "space": [{"name": "x1", "type": "continuous", "bounds": [-5.0, 10.0]},
              {"name": "x2", "type": "continuous", "bounds": [0.0, 15.0]}],
    "objective": {"builtin": {"name": "branin"}},
    "budget": {"evaluations": 16, "concurrency": 1},
    "solvers": [{"type": "bayes", "label": "bayes", "params": {"init": 6, "batch": 5}}],
}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tunekit.cli.main(["tune", "--config", str(path), "--out", str(Path(tmp) / "out")], standalone_mode=False)
print(json.dumps({"calls": calls, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""
    result = json.loads(run_python(code).splitlines()[-1])
    assert result["calls"] == {"fit_gp": 2, "propose": 2}
    assert result["scipy"] == []


def test_first_ask_is_lhs_init():
    solver = BayesSearch(MIXED, seed=5, config=BayesConfig(init=10, batch=5))
    points = solver.ask(100)
    assert len(points) == 10


def test_later_asks_respect_batch():
    solver = BayesSearch(UNIT1, seed=5, config=BayesConfig(init=4, batch=3))
    init = solver.ask(100)
    solver.tell([rec(UNIT1, [p.values[0]], float(p.values[0]), i + 1) for i, p in enumerate(init)])
    follow = solver.ask(100)
    assert 1 <= len(follow) <= 3


def test_foreign_records_grow_training_set():
    solver = BayesSearch(UNIT1, seed=5, config=BayesConfig(init=4, batch=2))
    init = solver.ask(100)
    own = [rec(UNIT1, [p.values[0]], float(p.values[0]), i + 1) for i, p in enumerate(init)]
    foreign = [rec(UNIT1, [0.123456], 0.5, 50), rec(UNIT1, [0.654321], 0.6, 51)]
    solver.tell(own + foreign)
    solver.ask(100)
    assert solver.model is not None
    assert len(solver.model.train_x) == len(init) + 2


def test_all_failed_records_fall_back_to_lhs_proposals():
    solver = BayesSearch(UNIT1, seed=8, config=BayesConfig(init=4, batch=3))
    init = solver.ask(100)
    solver.tell([rec(UNIT1, [p.values[0]], 0.0, i + 1, ok=False) for i, p in enumerate(init)])
    follow = solver.ask(100)  # surrogate unfit: proposals come from LHS
    assert 1 <= len(follow) <= 3
    assert solver.model is None


def test_branin_quality_across_seeds():
    objective = BuiltinObjective("branin", BRANIN_SPACE, seed=0)
    bests = []
    for seed in range(10):
        manager = TuningManager(BRANIN_SPACE)
        manager.register_solver(BayesSearch(BRANIN_SPACE, seed=seed))
        history = manager.run(lambda p, e: objective(p, e), Budget(50))
        bests.append(history.best_record().objective)
    median_gap = float(np.median(bests)) - BRANIN_MINIMUM
    assert float(np.median(bests)) <= 0.9, f"median best {np.median(bests)} (gap {median_gap})"
