import math

import numpy as np
import pytest

from batcap import woa
from batcap.rng import Rng, derive_seed, uniform_lanes


def sphere(x):
    return float(np.sum(x * x))


def small_config(**overrides):
    params = dict(
        dim=4,
        bounds=woa.uniform_bounds(4, -10.0, 10.0),
        pop_size=10,
        t_max=50,
        seed=1,
    )
    params.update(overrides)
    return woa.WoaConfig(**params)


def test_coefficients_at_start_middle_end():
    # A = 2 a r1 - a, so r1 = 1 reads a off A.
    r_half, ones = np.full(3, 0.5), np.ones(3)
    A, C = woa.update_coefficients(0, 100, ones, r_half)
    assert np.allclose(A, 2.0)
    A, C = woa.update_coefficients(100, 100, ones, r_half)
    assert np.allclose(A, 0.0)
    A, C = woa.update_coefficients(100, 100, np.zeros(3), r_half)
    assert np.allclose(A, 0.0)  # A = 0 regardless of r1 when a = 0
    A, C = woa.update_coefficients(50, 100, ones, r_half)
    assert np.allclose(A, 1.0)
    A, C = woa.update_coefficients(50, 100, r_half, r_half)
    assert np.allclose(A, 0.0)
    assert np.allclose(C, 1.0)


def test_coefficients_linear_in_t():
    r = np.ones(1)  # A equals a
    a0 = woa.update_coefficients(0, 10, r, r)[0][0]
    a5 = woa.update_coefficients(5, 10, r, r)[0][0]
    a10 = woa.update_coefficients(10, 10, r, r)[0][0]
    assert a0 == 2.0 and a10 == 0.0
    assert a5 == pytest.approx((a0 + a10) / 2)


def test_coefficients_reject_t_beyond_max():
    with pytest.raises(ValueError):
        woa.update_coefficients(11, 10, np.zeros(1), np.zeros(1))


def test_encircle_collapses_onto_best_when_a_zero():
    x = np.array([4.0, -3.0])
    best = np.array([1.0, 2.0])
    out = woa.encircle_step(x, best, np.zeros(2), np.full(2, 1.7))
    assert np.allclose(out, best)


def test_encircle_fixed_point():
    best = np.array([2.0, 2.0])
    out = woa.encircle_step(best, best, np.full(2, 0.3), np.ones(2))
    assert np.allclose(out, best)


def test_encircle_scalar_arithmetic():
    out = woa.encircle_step(np.array([2.0]), np.array([5.0]), np.array([0.5]), np.array([1.0]))
    assert out[0] == pytest.approx(3.5)  # D = 3, X' = 5 - 0.5 * 3


def test_encircle_scale_covariance():
    x = np.array([2.0, -1.0])
    best = np.array([5.0, 4.0])
    A = np.array([0.7, -0.4])
    C = np.array([1.3, 0.8])
    base = woa.encircle_step(x, best, A, C)
    scaled = woa.encircle_step(3.0 * x, 3.0 * best, A, C)
    assert np.allclose(scaled, 3.0 * base)


def test_spiral_stays_at_best_when_coincident():
    best = np.array([1.0, -2.0])
    for l in (-1.0, -0.3, 0.0, 0.8):
        assert np.allclose(woa.spiral_step(best, best, 1.0, l), best)


def test_spiral_at_l_zero_adds_distance():
    x = np.array([1.0])
    best = np.array([4.0])
    out = woa.spiral_step(x, best, 1.0, 0.0)
    assert out[0] == pytest.approx(7.0)  # D' = 3, e^0 cos 0 = 1


def test_spiral_scalar_value():
    # X=1, X*=3, b=1, l=-0.5: X' = 3 - 2 e^{-1/2}
    out = woa.spiral_step(np.array([1.0]), np.array([3.0]), 1.0, -0.5)
    assert out[0] == pytest.approx(3.0 - 2.0 * math.exp(-0.5), abs=1e-12)
    assert out[0] == pytest.approx(1.7869, abs=5e-5)


def test_random_search_collapse_cases():
    x_rand = np.array([4.0, 4.0])
    out = woa.random_search_step(np.array([0.0, 0.0]), x_rand, np.zeros(2), np.ones(2))
    assert np.allclose(out, x_rand)
    out = woa.random_search_step(x_rand, x_rand, np.full(2, 2.0), np.ones(2))
    assert np.allclose(out, x_rand)


def test_random_search_scalar_arithmetic():
    out = woa.random_search_step(
        np.array([0.0]), np.array([4.0]), np.array([2.0]), np.array([0.5])
    )
    assert out[0] == pytest.approx(0.0)  # D = 2, X' = 4 - 2*2


def test_optimize_clips_to_bounds():
    # The minimum at x = 5 lies outside the box, so the best agent sits on its edge.
    def far_sphere(x):
        return float(np.sum((x - 5.0) ** 2))

    res = woa.woa_optimize(far_sphere, small_config(bounds=woa.uniform_bounds(4, -1.0, 1.0)))
    assert np.all(res.best_position >= -1.0) and np.all(res.best_position <= 1.0)
    assert np.array_equal(res.best_position, np.ones(4))


def test_optimize_history_length_and_elitism():
    res = woa.woa_optimize(sphere, small_config(t_max=1))
    assert len(res.history) == 1
    res = woa.woa_optimize(sphere, small_config(t_max=60))
    hist = np.array(res.history)
    assert len(hist) == 60
    assert np.all(np.diff(hist) <= 0.0)
    assert res.best_cost == hist[-1]


def test_optimize_deterministic():
    a = woa.woa_optimize(sphere, small_config(seed=9))
    b = woa.woa_optimize(sphere, small_config(seed=9))
    assert np.array_equal(a.best_position, b.best_position)
    assert a.history == b.history
    c = woa.woa_optimize(sphere, small_config(seed=10))
    assert a.history != c.history


def test_lower_bound_skips_whales_without_changing_the_result():
    cfg = small_config(t_max=40, seed=4)
    plain = woa.woa_optimize(sphere, cfg)
    calls = []

    def counted(x):
        calls.append(1)
        return sphere(x)

    def floor(positions):
        # The tightest valid bound, with every third whale unknown (NaN).
        values = np.array([sphere(x) for x in positions])
        values[::3] = np.nan
        return values

    screened = woa.woa_optimize(counted, cfg, lower_bound=floor)
    assert screened.history == plain.history
    assert screened.best_cost == plain.best_cost
    assert np.array_equal(screened.best_position, plain.best_position)
    assert cfg.pop_size <= len(calls) < cfg.pop_size * (cfg.t_max + 1)


def test_optimize_respects_bounds_on_every_evaluation():
    seen = []

    def recording_sphere(x):
        seen.append(x.copy())
        return sphere(x)

    cfg = small_config(bounds=woa.uniform_bounds(4, -2.0, 3.0), t_max=30)
    woa.woa_optimize(recording_sphere, cfg)
    stacked = np.array(seen)
    assert np.all(stacked >= -2.0) and np.all(stacked <= 3.0)


def test_optimize_converges_on_small_sphere():
    cfg = small_config(dim=4, bounds=woa.uniform_bounds(4, -10.0, 10.0),
                       pop_size=20, t_max=200, seed=3)
    res = woa.woa_optimize(sphere, cfg)
    assert res.best_cost < 1e-4


def test_optimize_rejects_non_finite_objective():
    def bad(x):
        return float("nan")

    with pytest.raises(ValueError, match="non-finite"):
        woa.woa_optimize(bad, small_config())


def test_config_validation():
    with pytest.raises(ValueError):
        woa.WoaConfig(dim=0, bounds=()).validate()
    with pytest.raises(ValueError):
        woa.WoaConfig(dim=1, bounds=((1.0, 1.0),)).validate()
    with pytest.raises(ValueError):
        woa.WoaConfig(dim=1, bounds=((0.0, 1.0),), pop_size=1).validate()


def scalar_reference_woa(f, cfg):
    """Per-whale loop with one scalar Rng stream per (whale, iteration)."""
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])
    init_rng = Rng(derive_seed(cfg.seed, "init"))
    positions = np.array([lo + init_rng.uniforms(cfg.dim) * (hi - lo)
                          for _ in range(cfg.pop_size)])
    costs = [float(f(x)) for x in positions]
    best_idx = int(np.argmin(costs))
    best_pos, best_cost = positions[best_idx].copy(), costs[best_idx]
    history = []
    for t in range(cfg.t_max):
        new_positions = np.empty_like(positions)
        for i in range(cfg.pop_size):
            rng = Rng(derive_seed(cfg.seed, "whale", i, "iter", t))
            r1 = rng.uniforms(cfg.dim)
            r2 = rng.uniforms(cfg.dim)
            p = rng.uniform()
            spiral_l = rng.uniform(-1.0, 1.0)
            rand_idx = rng.below(cfg.pop_size)
            A, C = woa.update_coefficients(t, cfg.t_max, r1, r2)
            if p < 0.5:
                if float(np.linalg.norm(A)) < 1.0:
                    new_positions[i] = woa.encircle_step(positions[i], best_pos, A, C)
                else:
                    new_positions[i] = woa.random_search_step(
                        positions[i], positions[rand_idx], A, C)
            else:
                new_positions[i] = woa.spiral_step(positions[i], best_pos, cfg.spiral_b, spiral_l)
        positions = np.clip(new_positions, lo, hi)
        for x in positions:
            cost = float(f(x))
            if cost < best_cost:
                best_cost, best_pos = cost, x.copy()
        history.append(best_cost)
    return best_pos, history


# Off-centre box with per-dimension bounds, so the search step and the
# clipping both act and a bound mix-up would show.
OFF_CENTRE = tuple((-1.0 - 0.5 * k, 2.0 + k) for k in range(5))


@pytest.mark.parametrize("bounds,pop,t_max", [
    *[pytest.param(OFF_CENTRE, 6, t_max, id=str(t_max)) for t_max in (1, 7, 8, 9, 17)],
    # The WOA-ELM searches: 40 hidden nodes on 2 (fused) and 13 inputs. The
    # encircle gate ||A|| < 1 first opens near t_max at these dimensions.
    *[pytest.param(woa.uniform_bounds(dim, -1.0, 1.0), 30, 30, id=f"{dim}x30")
      for dim in (120, 560)],
])
def test_optimize_matches_scalar_reference(bounds, pop, t_max):
    def shifted_sphere(x):
        return float(np.sum((x - 1.5) ** 2))

    cfg = small_config(dim=len(bounds), bounds=bounds, pop_size=pop, t_max=t_max, seed=4)
    res = woa.woa_optimize(shifted_sphere, cfg)
    best_pos, history = scalar_reference_woa(shifted_sphere, cfg)
    assert np.array_equal(res.best_position, best_pos)
    assert np.array_equal(res.history, history)


@pytest.mark.parametrize("dim", [5, 10, 120, 560])
def test_gate_norms_equal_linalg_norm_per_row(dim):
    # Any rounding difference could flip the gate of a whale whose ||A|| is near 1.
    u = uniform_lanes(range(3000), dim)
    A = (2.0 * u - 1.0) * math.sqrt(3.0 / dim)
    expected = np.array([np.linalg.norm(row) for row in A])
    norms = np.concatenate([woa._row_norms(block) for block in np.split(A, 100)])
    assert np.array_equal(norms, expected)
