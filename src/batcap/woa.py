"""Whale optimization over a box-bounded continuous search space.

Population metaheuristic with three position updates per agent: shrinking
encirclement of the best solution, a logarithmic spiral around it, and a
random-agent search step for exploration. Each iteration moves the whole
population with one array update. Each whale draws its randomness from a
stream keyed by (seed, whale, iteration), so evaluation order cannot change
the result. An optional lower bound on the cost lets the optimizer skip
evaluating whales that cannot beat the best, with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Rng, derive_seed, derive_seeds, uniform_lanes

# Iterations whose whale streams are drawn together: pop_size * BLOCK lanes
# of 2 * dim + 3 uniforms each (about 2 MB for 30 whales at dim 560).
BLOCK = 8


@dataclass(frozen=True)
class WoaConfig:
    dim: int
    bounds: tuple[tuple[float, float], ...]
    pop_size: int = 30
    t_max: int = 500
    spiral_b: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if len(self.bounds) != self.dim:
            raise ValueError("bounds must have one (lo, hi) pair per dimension")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"invalid bound ({lo}, {hi})")
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")


def uniform_bounds(dim: int, lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    return tuple((lo, hi) for _ in range(dim))


@dataclass
class WoaResult:
    best_position: np.ndarray
    best_cost: float
    history: list[float] = field(default_factory=list)


def update_coefficients(t: int, t_max: int, r1: np.ndarray,
                        r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Iteration-dependent A and C; the scale a of A decays linearly from 2 to 0."""
    if t > t_max:
        raise ValueError(f"iteration {t} exceeds t_max {t_max}")
    a = 2.0 - 2.0 * t / t_max
    A = 2.0 * a * np.asarray(r1) - a
    C = 2.0 * np.asarray(r2)
    return A, C


def encircle_step(x: np.ndarray, best: np.ndarray, A: np.ndarray,
                  C: np.ndarray) -> np.ndarray:
    d = np.abs(C * best - x)
    return best - A * d


def spiral_step(x: np.ndarray, best: np.ndarray, b: float, spiral_l: float) -> np.ndarray:
    d = np.abs(best - x)
    return d * np.exp(b * spiral_l) * np.cos(2.0 * np.pi * spiral_l) + best


def random_search_step(x: np.ndarray, x_rand: np.ndarray, A: np.ndarray,
                       C: np.ndarray) -> np.ndarray:
    d = np.abs(C * x_rand - x)
    return x_rand - A * d


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of A, bit-equal to np.linalg.norm(A[i]).

    Each row is summed as one BLAS dot, as np.linalg.norm sums a vector;
    norm(axis=1) or einsum round differently and could flip the ||A|| < 1 gate.
    """
    return np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0, 0])


def _evaluate(f, x: np.ndarray) -> float:
    cost = float(f(x))
    if not np.isfinite(cost):
        raise ValueError(f"objective returned non-finite cost {cost} at {x.tolist()}")
    return cost


def woa_optimize(f, cfg: WoaConfig, lower_bound=None) -> WoaResult:
    """Minimize f over the configured box; deterministic for a fixed seed.

    Per iteration each whale draws p ~ U[0,1]: with p < 0.5 it encircles the
    best agent when the gate ||A|| < 1 and otherwise searches around a random
    agent; with p >= 0.5 it spirals toward the best. The new positions are
    clipped to the box once per iteration. The best-so-far agent is never
    discarded, so the cost history is non-increasing.

    lower_bound, if given, is called as lower_bound(positions, best) once
    per iteration, with the (pop, dim) positions of the iteration and the
    best cost at its start. It returns one value per whale that f(x) is
    never below; NaN means unknown. A whale is evaluated only if its bound
    is below the running best: a cost is read only to ask whether it sets a
    new best, so skipping the others leaves history, best_cost and
    best_position bit-identical. The running best only falls within an
    iteration, so a bound need only be tight where it is below ``best``: a
    bound already at or above ``best`` decides its whale however loose it
    is. The initial population is always evaluated in full.
    """
    cfg.validate()
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])

    pop, dim = cfg.pop_size, cfg.dim
    init_rng = Rng(derive_seed(cfg.seed, "init"))
    positions = lo + init_rng.uniforms(pop * dim).reshape(pop, dim) * (hi - lo)
    costs = np.array([_evaluate(f, x) for x in positions])
    best_idx = int(np.argmin(costs))
    best_pos = positions[best_idx].copy()
    best_cost = float(costs[best_idx])

    history: list[float] = []
    for t in range(cfg.t_max):
        if t % BLOCK == 0:
            # A whale's stream depends only on (seed, whale, iteration), so a
            # block of iterations is drawn before any of its positions exist.
            block = np.arange(t, min(t + BLOCK, cfg.t_max))
            seeds = derive_seeds(cfg.seed, "whale", np.arange(pop), "iter", block[:, None])
            draws = uniform_lanes(seeds.ravel(), 2 * dim + 3).reshape(len(block), pop, 2 * dim + 3)
        # Row i holds the same values, in the same stream order, as whale i's
        # Rng.uniforms(dim) twice, uniform(), uniform(-1, 1) and below(pop).
        u = draws[t % BLOCK]
        r1, r2, p = u[:, :dim], u[:, dim:2 * dim], u[:, 2 * dim]
        spiral_l = -1.0 + u[:, 2 * dim + 1:2 * dim + 2] * 2.0
        rand_idx = np.minimum((u[:, -1] * pop).astype(np.intp), pop - 1)
        A, C = update_coefficients(t, cfg.t_max, r1, r2)
        new_positions = np.where(
            (p < 0.5)[:, None],
            np.where((_row_norms(A) < 1.0)[:, None], encircle_step(positions, best_pos, A, C),
                     random_search_step(positions, positions[rand_idx], A, C)),
            spiral_step(positions, best_pos, cfg.spiral_b, spiral_l))
        positions = np.clip(new_positions, lo, hi, out=new_positions)
        floors = (np.full(pop, np.nan) if lower_bound is None
                  else lower_bound(positions, best_cost))
        for i in range(pop):
            if floors[i] >= best_cost:
                continue
            cost = _evaluate(f, positions[i])
            if cost < best_cost:
                best_cost = cost
                best_pos = positions[i].copy()
        history.append(best_cost)
    return WoaResult(best_position=best_pos, best_cost=best_cost, history=history)
