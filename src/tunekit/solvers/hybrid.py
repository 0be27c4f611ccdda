"""Default search method: LHS initialization, GA generations, and local
pattern-search growth steps around selected population members.

Each generation the solver picks centers (the best member plus random draws
from the Pareto front of low objective versus high nearest-neighbor distance),
polls compass points at each center's current step size, and breeds children
by tournament selection, per-variable crossover, and encoded-space mutation.
A center moves to its best poll only under sufficient decrease
(f_new < f_old - alpha * step^2); otherwise its step halves. Elites and
centers persist across generations; everyone else is replaced by the best
children, whose steps reset to the initial value.

Foreign records arriving through cross-solver sharing are adopted whenever
they beat the current worst member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cache import CacheKey, decode_keyed, row_key
from ..manager import Solver, check_param
from ..sampling import SampleRequest, lhs_design, lhs_encoded, lhs_points
from ..space import CategoricalVariable, Point, SearchSpace, mixed_sqdist_matrix
from ..trials import TrialRecord


@dataclass(frozen=True)
class HybridConfig:
    population: int = 10
    centers: int = 2
    delta_init: float = 0.1
    alpha: float = 1e-4
    crossover_prob: float = 0.8
    mutation_prob: float = 0.2
    tournament: int = 2
    elites: int = 1

    def __post_init__(self) -> None:
        check_param("population", self.population, integer=True, minimum=1)
        check_param("centers", self.centers, integer=True, minimum=0)
        check_param("elites", self.elites, integer=True, minimum=0)
        check_param("tournament", self.tournament, integer=True, minimum=1)
        check_param("delta_init", self.delta_init, integer=False, minimum=0, strict=True)
        check_param("alpha", self.alpha, integer=False, minimum=0, strict=True)
        check_param("crossover_prob", self.crossover_prob, integer=False, minimum=0)
        check_param("mutation_prob", self.mutation_prob, integer=False, minimum=0)
        if self.centers >= self.population:
            raise ValueError(f"centers must be below population ({self.population}), got {self.centers}")
        if self.elites >= self.population:
            raise ValueError(f"elites must be below population ({self.population}), got {self.elites}")
        if self.alpha >= 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        for name in ("crossover_prob", "mutation_prob"):
            if getattr(self, name) > 1:
                raise ValueError(f"{name} must be <= 1, got {getattr(self, name)!r}")


@dataclass(eq=False)
class Member:
    rec: TrialRecord
    delta: float

    def rank_key(self) -> tuple[float, int]:
        return (self.rec.objective, self.rec.eval_id)


@dataclass(frozen=True)
class GrowthEvent:
    """One pattern-search decision, kept for conformance instrumentation."""

    accepted: bool
    f_center: float
    f_best_poll: float | None
    delta_before: float
    delta_after: float
    alpha: float


@dataclass
class _Generation:
    centers: list[Member]
    poll_keys: list[list[CacheKey]]
    children_keys: list[CacheKey]
    asked_keys: set[CacheKey] = field(default_factory=set)


def nearest_neighbor_distances(space: SearchSpace, members: Sequence[Member]) -> list[float]:
    encoded = np.stack([m.rec.encoded for m in members])
    sq = mixed_sqdist_matrix(space, encoded, encoded)
    np.fill_diagonal(sq, np.inf)
    return np.sqrt(sq.min(axis=1)).tolist()


def pareto_front(objectives: Sequence[float], nn_dists: Sequence[float]) -> list[int]:
    """Nondominated members under (minimize objective, maximize nn distance)."""
    front = []
    for i in range(len(objectives)):
        dominated = False
        for j in range(len(objectives)):
            if j == i:
                continue
            if (
                objectives[j] <= objectives[i]
                and nn_dists[j] >= nn_dists[i]
                and (objectives[j] < objectives[i] or nn_dists[j] > nn_dists[i])
            ):
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front


def select_centers(
    space: SearchSpace,
    members: Sequence[Member],
    n_centers: int,
    rng: np.random.Generator,
) -> list[Member]:
    """Best member first, then uniform draws (without replacement) from the
    Pareto front of (objective, nearest-neighbor distance); falls back to the
    rest of the population if the front runs out."""
    if n_centers <= 0 or not members:
        return []
    members = list(members)
    best = min(members, key=Member.rank_key)
    chosen = [best]
    if len(chosen) < n_centers:
        nn = nearest_neighbor_distances(space, members)
        front = [members[i] for i in pareto_front([m.rec.objective for m in members], nn)]
        candidates = [m for m in front if m is not best]
        while len(chosen) < n_centers and candidates:
            pick = int(rng.integers(0, len(candidates)))
            chosen.append(candidates.pop(pick))
        leftovers = [m for m in members if m not in chosen]
        while len(chosen) < n_centers and leftovers:
            pick = int(rng.integers(0, len(leftovers)))
            chosen.append(leftovers.pop(pick))
    return chosen


def poll_points(space: SearchSpace, member: Member) -> list[tuple[Point, CacheKey]]:
    """Compass points at +/- delta along each numeric channel, snapped into
    bounds, with their keys; points that snap onto the center are dropped."""
    rows = np.repeat(member.rec.encoded[None, :], 2 * len(space.numeric_indices), axis=0)
    for j, i in enumerate(space.numeric_indices):
        rows[2 * j, i] += member.delta
        rows[2 * j + 1, i] -= member.delta
    return [(p, key) for p, key in decode_keyed(space, rows) if key != member.rec.key]


def growth_update(center: Member, poll_records: Sequence[TrialRecord], alpha: float) -> GrowthEvent:
    """Pattern-search decision for one center: move to the best poll under
    sufficient decrease (f_best < f_center - alpha * delta^2), else halve the
    step. An empty poll set counts as a failure. Mutates the member: a move
    replaces its record with the poll's and keeps the step."""
    delta = center.delta
    f_old = center.rec.objective
    best = min(poll_records, key=lambda r: (r.objective, r.eval_id), default=None)
    if best is not None and best.objective < f_old - alpha * delta * delta:
        center.rec = best
        return GrowthEvent(True, f_old, best.objective, delta, delta, alpha)
    center.delta = delta / 2
    return GrowthEvent(
        False,
        f_old,
        best.objective if best is not None else None,
        delta,
        center.delta,
        alpha,
    )


def make_children(
    space: SearchSpace,
    members: Sequence[Member],
    count: int,
    config: HybridConfig,
    rng: np.random.Generator,
) -> list[tuple[Point, CacheKey]]:
    """Tournament parents, per-variable uniform crossover, encoded-space
    mutation (Gaussian sigma 0.1 for numeric channels, resample-other-level
    for categorical ones); returns the children with their keys."""

    def tournament() -> Member:
        draws = rng.integers(0, len(members), size=config.tournament)
        return min((members[i] for i in draws), key=Member.rank_key)

    children = []
    for _ in range(count):
        p1, p2 = tournament(), tournament()
        enc = p1.rec.encoded.copy()
        for ch in range(len(space.variables)):
            if rng.random() < config.crossover_prob and rng.random() < 0.5:
                enc[ch] = p2.rec.encoded[ch]
        for ch, var in enumerate(space.variables):
            if rng.random() < config.mutation_prob:
                if isinstance(var, CategoricalVariable):
                    levels = len(var.levels)
                    if levels > 1:
                        current = int(round(enc[ch]))
                        others = [i for i in range(levels) if i != current]
                        enc[ch] = float(others[int(rng.integers(0, len(others)))])
                else:
                    enc[ch] = float(np.clip(enc[ch] + rng.normal(0.0, 0.1), 0.0, 1.0))
        children.append(enc)
    return decode_keyed(space, children)


class HybridSearch(Solver):
    def __init__(self, space: SearchSpace, seed: int, config: HybridConfig | None = None):
        self._space = space
        self.config = config or HybridConfig()
        self._rng = np.random.default_rng(seed)
        self.population: list[Member] = []
        self.growth_log: list[GrowthEvent] = []
        self._init_keys: list[CacheKey] | None = None
        self._generation: _Generation | None = None

    # -- ask ------------------------------------------------------------------

    def ask(self, max_points: int) -> list[Point]:
        if max_points <= 0:
            return []
        if not self.population and self._init_keys is None:
            n = min(self.config.population, max_points)
            design = lhs_design(self._space, SampleRequest(n, int(self._rng.integers(0, 2**63))))
            self._init_keys = [row_key(row) for row in lhs_encoded(self._space, design)]
            return lhs_points(self._space, design)
        return self._ask_generation(max_points)

    def _ask_generation(self, max_points: int) -> list[Point]:
        cfg = self.config
        centers = select_centers(self._space, self.population, min(cfg.centers, len(self.population)), self._rng)
        children = make_children(self._space, self.population, cfg.population - cfg.elites, cfg, self._rng)

        gen = _Generation(centers=centers, poll_keys=[[] for _ in centers], children_keys=[])
        # each candidate carries the key list it joins: its center's polls or the children
        candidates: list[tuple[Point, CacheKey, list[CacheKey]]] = []
        for center, keys in zip(centers, gen.poll_keys):
            candidates.extend((p, key, keys) for p, key in poll_points(self._space, center))
        candidates.extend((p, key, gen.children_keys) for p, key in children)

        points: list[Point] = []
        served: set[CacheKey] = set()
        for point, key, joins in candidates:
            if len(points) >= max_points and key not in served:
                continue
            if key not in served:
                served.add(key)
                points.append(point)
            joins.append(key)
        gen.asked_keys = served
        self._generation = gen
        return points

    # -- tell -----------------------------------------------------------------

    def tell(self, records: Sequence[TrialRecord]) -> None:
        recmap = {rec.key: rec for rec in records}  # a tell holds each key once
        if self._init_keys is not None and not self.population:
            self._absorb_init(recmap)
        elif self._generation is not None:
            self._absorb_generation(recmap)
        else:
            # nothing asked this round; shared foreign records can still help
            self._adopt_foreign(recmap.values())

    def _absorb_init(self, recmap: dict[CacheKey, TrialRecord]) -> None:
        assert self._init_keys is not None
        own = set(self._init_keys)
        for key in self._init_keys:
            if key in recmap:
                self.population.append(Member(recmap[key], self.config.delta_init))
        self._adopt_foreign(rec for key, rec in recmap.items() if key not in own)

    def _absorb_generation(self, recmap: dict[CacheKey, TrialRecord]) -> None:
        gen = self._generation
        assert gen is not None
        self._generation = None
        cfg = self.config

        for center, keys in zip(gen.centers, gen.poll_keys):
            event = growth_update(center, [recmap[k] for k in keys if k in recmap], cfg.alpha)
            self.growth_log.append(event)

        keep: list[Member] = list(gen.centers)
        for elite in sorted(self.population, key=Member.rank_key)[: cfg.elites]:
            if elite not in keep:
                keep.append(elite)
        keep = keep[: cfg.population]  # centers + elites can overflow tiny populations

        child_records = {key: recmap[key] for key in gen.children_keys if key in recmap}
        fills = sorted((Member(rec, cfg.delta_init) for rec in child_records.values()), key=Member.rank_key)
        slots = max(cfg.population - len(keep), 0)
        new_pop = keep + fills[:slots]
        if len(new_pop) < cfg.population:
            survivors = [m for m in sorted(self.population, key=Member.rank_key) if m not in new_pop]
            new_pop += survivors[: cfg.population - len(new_pop)]
        self.population = new_pop

        self._adopt_foreign(rec for key, rec in recmap.items() if key not in gen.asked_keys)

    def _adopt_foreign(self, records) -> None:
        """A shared record better than the current worst member replaces it."""
        if not self.population:
            return
        member_keys = {m.rec.key for m in self.population}
        for rec in sorted(records, key=lambda r: r.eval_id):
            if rec.key in member_keys:
                continue
            worst_i = max(range(len(self.population)), key=lambda i: self.population[i].rank_key())
            if rec.objective < self.population[worst_i].rec.objective:
                member_keys.discard(self.population[worst_i].rec.key)
                self.population[worst_i] = Member(rec, self.config.delta_init)
                member_keys.add(rec.key)
