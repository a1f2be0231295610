"""Whale optimization over a box-bounded continuous search space.

Population metaheuristic with three position updates per agent: shrinking
encirclement of the best solution, a logarithmic spiral around it, and a
random-agent search step for exploration. Each whale draws its randomness
from a stream keyed by (seed, whale, iteration), so evaluation order cannot
change the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Rng, derive_seed, uniform_lanes

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
    # "euclidean" gates exploration on ||A||; "component" on max |A_i|.
    gate_norm: str = "euclidean"

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
        if self.gate_norm not in ("euclidean", "component"):
            raise ValueError("gate_norm must be 'euclidean' or 'component'")


def uniform_bounds(dim: int, lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    return tuple((lo, hi) for _ in range(dim))


@dataclass
class WoaResult:
    best_position: np.ndarray
    best_cost: float
    history: list[float] = field(default_factory=list)


def update_coefficients(t: int, t_max: int, r1: np.ndarray,
                        r2: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Iteration-dependent coefficients: a decays linearly from 2 to 0."""
    if t > t_max:
        raise ValueError(f"iteration {t} exceeds t_max {t_max}")
    a = 2.0 - 2.0 * t / t_max
    A = 2.0 * a * np.asarray(r1) - a
    C = 2.0 * np.asarray(r2)
    return a, A, C


def _clamp(x: np.ndarray, bounds) -> np.ndarray:
    if bounds is None:
        return x
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.clip(x, lo, hi)


def encircle_step(x: np.ndarray, best: np.ndarray, A: np.ndarray,
                  C: np.ndarray, bounds=None) -> np.ndarray:
    d = np.abs(C * best - x)
    return _clamp(best - A * d, bounds)


def spiral_step(x: np.ndarray, best: np.ndarray, b: float, spiral_l: float,
                bounds=None) -> np.ndarray:
    d = np.abs(best - x)
    return _clamp(d * np.exp(b * spiral_l) * np.cos(2.0 * np.pi * spiral_l) + best, bounds)


def random_search_step(x: np.ndarray, x_rand: np.ndarray, A: np.ndarray,
                       C: np.ndarray, bounds=None) -> np.ndarray:
    d = np.abs(C * x_rand - x)
    return _clamp(x_rand - A * d, bounds)


def _evaluate(f, x: np.ndarray) -> float:
    cost = float(f(x))
    if not np.isfinite(cost):
        raise ValueError(f"objective returned non-finite cost {cost} at {x.tolist()}")
    return cost


def woa_optimize(f, cfg: WoaConfig) -> WoaResult:
    """Minimize f over the configured box; deterministic for a fixed seed.

    Per iteration each whale draws p ~ U[0,1]: with p < 0.5 it encircles the
    best agent when the gate |A| < 1 and otherwise searches around a random
    agent; with p >= 0.5 it spirals toward the best. The best-so-far agent is
    never discarded, so the cost history is non-increasing.
    """
    cfg.validate()
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])

    init_rng = Rng(derive_seed(cfg.seed, "init"))
    positions = np.empty((cfg.pop_size, cfg.dim))
    for i in range(cfg.pop_size):
        positions[i] = lo + init_rng.uniforms(cfg.dim) * (hi - lo)
    costs = np.array([_evaluate(f, x) for x in positions])
    best_idx = int(np.argmin(costs))
    best_pos = positions[best_idx].copy()
    best_cost = float(costs[best_idx])

    history: list[float] = []
    pop, dim = cfg.pop_size, cfg.dim
    for t in range(cfg.t_max):
        if t % BLOCK == 0:
            # A whale's stream depends only on (seed, whale, iteration), so a
            # block of iterations is drawn before any of its positions exist.
            block = range(t, min(t + BLOCK, cfg.t_max))
            draws = uniform_lanes(
                [derive_seed(cfg.seed, "whale", i, "iter", k) for k in block for i in range(pop)],
                2 * dim + 3,
            ).reshape(len(block), pop, 2 * dim + 3)
        new_positions = np.empty_like(positions)
        for i in range(pop):
            u = draws[t % BLOCK, i]
            # Same values, in the same stream order, as Rng.uniforms(dim) twice,
            # uniform(), uniform(-1, 1) and below(pop).
            r1, r2, p = u[:dim], u[dim:2 * dim], u[2 * dim]
            spiral_l = -1.0 + u[2 * dim + 1] * 2.0
            rand_idx = min(int(u[2 * dim + 2] * pop), pop - 1)
            _, A, C = update_coefficients(t, cfg.t_max, r1, r2)
            if p < 0.5:
                if cfg.gate_norm == "euclidean":
                    gate = float(np.linalg.norm(A))
                else:
                    gate = float(np.max(np.abs(A)))
                if gate < 1.0:
                    new_positions[i] = encircle_step(positions[i], best_pos, A, C)
                else:
                    new_positions[i] = random_search_step(positions[i], positions[rand_idx], A, C)
            else:
                new_positions[i] = spiral_step(positions[i], best_pos, cfg.spiral_b, spiral_l)
        positions = np.clip(new_positions, lo, hi, out=new_positions)
        costs = np.array([_evaluate(f, x) for x in positions])
        for i in range(pop):
            if costs[i] < best_cost:
                best_cost = float(costs[i])
                best_pos = positions[i].copy()
        history.append(best_cost)
    return WoaResult(best_position=best_pos, best_cost=best_cost, history=history)
