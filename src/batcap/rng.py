"""Portable deterministic random numbers (xoshiro256++ seeded via SplitMix64).

Every stochastic component in this package draws from this generator rather
than ``numpy.random`` so that its random streams are bit-identical across
platforms and numpy versions.

``Rng`` steps one stream with Python integers masked to 64 bits.
``uniform_lanes`` steps many independent streams together as numpy
``uint64`` arrays, whose arithmetic is modulo 2**64 and wraps the same way on
every platform, so each lane yields exactly the values of the scalar stream.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (Steele, Lea, Flood 2014).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state; return (new_state, output)."""
    state = (state + _SM_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SM_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MUL2) & _MASK64
    z ^= z >> 31
    return state, z


def derive_seed(*parts: int | str) -> int:
    """Fold integers and strings into a 64-bit stream seed.

    Used to give sub-streams (per whale, per tree, per pipeline stage, ...)
    independent deterministic seeds: ``derive_seed(master, "woa", 3)``.
    Strings are absorbed as length-prefixed little-endian 8-byte words so no
    two distinct inputs collide by concatenation.
    """
    h = 0x6A09E667F3BCC908  # arbitrary non-zero start (sqrt(2) bits)
    for part in parts:
        if isinstance(part, str):
            raw = part.encode("utf-8")
            words = [len(raw)]
            for i in range(0, len(raw), 8):
                words.append(int.from_bytes(raw[i:i + 8], "little"))
        else:
            words = [int(part) & _MASK64]
        for word in words:
            h, out = _splitmix64((h ^ word) & _MASK64)
            h ^= out
    _, out = _splitmix64(h)
    return out


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256++ generator with a SplitMix64-seeded state.

    Scalar draws are plain Python integer arithmetic (no C-extension state),
    which keeps the sequence identical on every platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        sm = self.seed
        state = []
        for _ in range(4):
            sm, out = _splitmix64(sm)
            state.append(out)
        self._s = state
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform double in [lo, hi) with 53-bit resolution."""
        u = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + u * (hi - lo)

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        # Hot path for vector draws (optimizer coefficient vectors); same
        # sequence as repeated uniform() calls, with the state kept in locals.
        s0, s1, s2, s3 = self._s
        span = (hi - lo) * 2.0 ** -53
        out = []
        append = out.append
        for _ in range(n):
            base = (s0 + s3) & _MASK64
            result = (((base << 23) | (base >> 41)) + s0) & _MASK64
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
            append(lo + (result >> 11) * span)
        self._s = [s0, s1, s2, s3]
        return np.array(out, dtype=float)

    def normal(self, mu: float = 0.0, sd: float = 1.0) -> float:
        """Gaussian draw via Box-Muller (deterministic two-uniform recipe)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return mu + sd * z
        # 1 - uniform() lies in (0, 1]: log(0) can never occur.
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return mu + sd * r * math.cos(theta)

    def normals(self, n: int, mu: float = 0.0, sd: float = 1.0) -> np.ndarray:
        return np.array([self.normal(mu, sd) for _ in range(n)], dtype=float)

    def below(self, n: int) -> int:
        """Integer in [0, n). Scaled-uniform mapping, pinned for portability."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        i = int(self.uniform() * n)
        return n - 1 if i >= n else i

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def uniform_lanes(seeds, n: int) -> np.ndarray:
    """Uniforms in [0, 1) from many streams at once, one row per seed.

    Row ``j`` equals ``Rng(seeds[j]).uniforms(n)`` bit for bit: every lane is
    seeded as ``Rng`` seeds it and all lanes advance together.
    """
    sm = np.array([int(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    state = np.empty((4, len(sm)), dtype=np.uint64)
    for k in range(4):
        # SplitMix64 on whole arrays; uint64 products wrap modulo 2**64.
        sm += np.uint64(_SM_GAMMA)
        z = (sm ^ (sm >> np.uint64(30))) * np.uint64(_SM_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MUL2)
        state[k] = z ^ (z >> np.uint64(31))
    s0, s1, s2, s3 = state

    def rotl(x, k):
        return (x << np.uint64(k)) | (x >> np.uint64(64 - k))

    raw = np.empty((len(sm), n), dtype=np.uint64)
    for i in range(n):
        np.add(rotl(s0 + s3, 23), s0, out=raw[:, i])
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = rotl(s3, 45)
    raw >>= np.uint64(11)
    return raw * 2.0 ** -53


def normal_lanes(seeds, sds) -> np.ndarray:
    """Normals from many streams at once, one row per seed.

    Row ``j`` holds, bit for bit, ``rng.normal(0.0, sd)`` for each ``sd`` in
    ``sds``, drawn in turn from one ``rng = Rng(seeds[j])``. The uniforms come
    from ``uniform_lanes``, and each Box-Muller pair is computed in
    ``Rng.normal``'s order through the same libm ``log``, ``cos`` and ``sin``
    (numpy's own may round differently).
    """
    sds = np.asarray(sds, dtype=float)
    pairs = (len(sds) + 1) // 2
    u = uniform_lanes(seeds, 2 * pairs)
    shape = (len(u), pairs)
    log_u1 = np.fromiter(map(math.log, (1.0 - u[:, 0::2]).ravel().tolist()), float)
    r = np.sqrt(-2.0 * log_u1.reshape(shape))
    theta = (2.0 * math.pi * u[:, 1::2]).ravel().tolist()
    cos = np.fromiter(map(math.cos, theta), float).reshape(shape)
    sin = np.fromiter(map(math.sin, theta), float).reshape(shape)
    sd = np.resize(sds, 2 * pairs)  # an odd count draws one spare it never returns
    z = np.empty((len(u), 2 * pairs))
    z[:, 0::2] = 0.0 + sd[0::2] * r * cos
    z[:, 1::2] = 0.0 + sd[1::2] * (r * sin)
    return z[:, :len(sds)]
