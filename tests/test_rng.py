import numpy as np
import pytest
from hypothesis import given, strategies as st

from batcap import woa
from batcap.rng import Rng, derive_seed, derive_seeds, normal_lanes, uniform_lanes

MASK = (1 << 64) - 1


def reference_xoshiro(seed, count):
    """Independent transcription of SplitMix64 seeding + xoshiro256++."""
    state = seed & MASK
    s = []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        s.append(z ^ (z >> 31))

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    out = []
    for _ in range(count):
        out.append((rotl((s[0] + s[3]) & MASK, 23) + s[0]) & MASK)
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 12345, 2**63])
def test_matches_reference_transcription(seed):
    rng = Rng(seed)
    assert [rng.next_u64() for _ in range(10)] == reference_xoshiro(seed, 10)


def test_pinned_u64_sequence():
    rng = Rng(12345)
    assert [rng.next_u64() for _ in range(5)] == [
        10201931350592234856,
        3780764549115216544,
        1570246627180645737,
        3237956550421933520,
        4899705286669081817,
    ]


def test_uniforms_match_scalar_path():
    batch = Rng(99).uniforms(500, -2.0, 3.0)
    rng = Rng(99)
    singles = np.array([rng.uniform(-2.0, 3.0) for _ in range(500)])
    assert np.array_equal(batch, singles)


LANE_SEEDS = [0, 1, 2**63, 2**64 - 1]


# uint64 overflow warns on numpy scalars but not on arrays; the lanes must
# stay arrays throughout.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [0, 1, 1123])
@pytest.mark.parametrize("seeds", [LANE_SEEDS, [2**64 - 1]], ids=["four", "single"])
def test_uniform_lanes_match_scalar_streams(seeds, n):
    lanes = uniform_lanes(seeds, n)
    # One C-contiguous row per seed: a BLAS product over the rows of a
    # strided view (woa's gate norms) can round differently.
    assert lanes.shape == (len(seeds), n)
    assert lanes.dtype == np.float64 and lanes.flags.c_contiguous
    for seed, row in zip(seeds, lanes):
        assert np.array_equal(row, Rng(seed).uniforms(n))


def test_uniform_range():
    rng = Rng(7)
    draws = rng.uniforms(10000)
    assert np.all((draws >= 0.0) & (draws < 1.0))
    assert 0.45 < draws.mean() < 0.55


def test_normals_are_deterministic_and_plausible():
    a = Rng(3).normals(4001)
    b = Rng(3).normals(4001)
    assert np.array_equal(a, b)
    assert abs(a.mean()) < 0.05
    assert 0.95 < a.std() < 1.05


def test_below_bounds_and_shuffle_permutes():
    rng = Rng(11)
    draws = [rng.below(7) for _ in range(200)]
    assert set(draws) <= set(range(7))
    items = list(range(20))
    rng.shuffle(items)
    assert sorted(items) == list(range(20))
    assert items != list(range(20))


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rng(0).below(0)


def test_derive_seed_distinguishes_parts():
    seeds = {
        derive_seed(1, "split"),
        derive_seed(1, "train"),
        derive_seed(2, "split"),
        derive_seed(1, "split", 0),
        derive_seed(1, "spl", "it"),
    }
    assert len(seeds) == 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 4, 2**63, 2**64 - 1, -1, -4, -2**63, -2**70])
def test_derive_seeds_match_derive_seed(seed):
    # woa's whale seeds: iterations across a BLOCK boundary, a population of 31.
    iters = range(woa.BLOCK - 3, 2 * woa.BLOCK + 2)
    got = derive_seeds(seed, "whale", np.arange(31), "iter", np.array(iters)[:, None])
    expected = [[derive_seed(seed, "whale", i, "iter", k) for i in range(31)] for k in iters]
    assert got.dtype == np.uint64 and got.tolist() == expected


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_derive_seed_in_range(seed):
    assert 0 <= derive_seed(seed, "x") < 2**64


@pytest.mark.parametrize("sds", [[], [1.0], [0.5, 2.0, 3.0], [0.051] + [0.0003] * 40],
                         ids=["none", "one", "odd", "synth_like"])
def test_normal_lanes_match_scalar_normals(sds):
    seeds = [derive_seed(7, "cycle", c) for c in range(1, 60)] + [0, 2**64 - 1]
    expected = []
    for seed in seeds:
        rng = Rng(seed)
        expected.append([rng.normal(0.0, sd) for sd in sds])
    got = normal_lanes(seeds, sds)
    assert got.shape == (len(seeds), len(sds))
    assert got.tobytes() == np.array(expected).reshape(len(seeds), len(sds)).tobytes()
