"""Binary strings, the null, planted and deletion-channel samplers, and typicality.

All randomness flows through :class:`Seed`, a (master, stream) pair feeding a
PCG64 generator via numpy's SeedSequence.  Distinct (master, stream) pairs give
statistically independent substreams, which is what makes Monte Carlo drivers
reproducible and order-independent: sample i of an experiment always uses
``seed.substream(i)``.

Embeddings and planted index sets are 0-based strictly increasing numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

_U64 = 1 << 64
_FUZZ = 1e-9  # guards floors of products like alpha*n against float dust


def exact_floor(v: float) -> int:
    """floor(v) for a float v that stands for an exact product, such as alpha * n.

    A float alpha such as 1 - 0.9 = 0.09999999999999998 would floor one short
    (alpha * 10 = 0.9999999999999998), so v is nudged by _FUZZ before
    flooring.  For an alpha within a few ulps of a decimal with at most eight
    digits after the point, and n <= 10^6, the nudge exceeds the float error
    of the product and stays below the distance from any non-integer product
    to the next integer, so the result is the floor of the exact decimal
    product.  The ceiling of such a v is -exact_floor(-v).
    """
    return int(math.floor(v + _FUZZ))


def embedded_length(alpha: float, n: int) -> int:
    """M = floor(alpha * n), the floor taken of the exact decimal product."""
    return exact_floor(alpha * n)


@dataclass(frozen=True)
class Seed:
    """Reproducible RNG source keyed by a (master, stream) pair of 64-bit ints."""

    master: int
    stream: int = 0

    def __post_init__(self):
        for name, v in (("master", self.master), ("stream", self.stream)):
            if not 0 <= v < _U64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence((self.master, self.stream))))

    def substream(self, index: int) -> "Seed":
        return Seed(self.master, (self.stream + index) % _U64)


class BitString:
    """Immutable binary string stored as a uint8 numpy array of 0/1 values."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and arr.max(initial=0) > 1:
            raise ValueError("bits must be 0 or 1")
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"not a binary string: {text!r}")
        return cls(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(np.ones(n, dtype=np.uint8))

    def to_text(self) -> str:
        return "".join("01"[b] for b in self.bits)

    def take(self, indices) -> "BitString":
        return BitString(self.bits[np.asarray(indices, dtype=np.int64)])

    def __len__(self) -> int:
        return self.bits.size

    def __getitem__(self, key):
        if isinstance(key, slice):
            return BitString(self.bits[key])
        return int(self.bits[key])

    def __iter__(self):
        return iter(int(b) for b in self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.all(self.bits == other.bits))

    def __hash__(self):
        return hash((self.bits.size, self.bits.tobytes()))

    def __repr__(self) -> str:
        s = self.to_text()
        if len(s) > 40:
            s = s[:37] + "..."
        return f"BitString({s!r})"


def all_bitstrings(n: int):
    """Yield all 2^n strings of length n; string w has bit k of w at position k."""
    for word in range(1 << n):
        yield BitString(np.fromiter(((word >> k) & 1 for k in range(n)), dtype=np.uint8, count=n))


class DisorderLaw(Enum):
    NULL = "null"
    PLANTED = "planted"
    CHANNEL = "channel"


@dataclass(frozen=True)
class Disorder:
    """An (x, y) string pair tagged with the law that generated it.

    For the planted law, ``planted_embedding`` is the strictly increasing index
    set sigma* with y = x[sigma*]; it is None otherwise.
    """

    x: BitString
    y: BitString
    law: DisorderLaw
    planted_embedding: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.y) > len(self.x):
            raise ValueError("y must not be longer than x")
        if self.law is DisorderLaw.PLANTED:
            emb = self.planted_embedding
            if emb is None:
                raise ValueError("planted disorder requires its embedding")
            if len(emb) != len(self.y) or (len(emb) > 1 and not np.all(np.diff(emb) > 0)):
                raise ValueError("planted embedding must be strictly increasing of length |y|")
            if self.y != self.x.take(emb):
                raise ValueError("y must equal x restricted to the planted embedding")
        elif self.planted_embedding is not None:
            raise ValueError("only the planted law carries an embedding")


def sample_uniform_string(n: int, seed: Seed) -> BitString:
    """n i.i.d. uniform bits, deterministic given the seed."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return BitString(seed.rng().integers(0, 2, size=n, dtype=np.uint8))


def sample_null(n: int, m: int, seed: Seed) -> Disorder:
    """Independent uniform x of length n and y of length m."""
    if not 0 <= m <= n:
        raise ValueError(f"invalid dimensions: need 0 <= m <= n, got n={n}, m={m}")
    rng = seed.rng()
    x = BitString(rng.integers(0, 2, size=n, dtype=np.uint8))
    y = BitString(rng.integers(0, 2, size=m, dtype=np.uint8))
    return Disorder(x, y, DisorderLaw.NULL)


def sample_planted(n: int, m: int, seed: Seed) -> Disorder:
    """Uniform x plus a uniform m-subset sigma* of [n]; y = x[sigma*].

    The subset comes from a Fisher-Yates shuffle of the index range followed by
    sorting the first m entries, which is exactly uniform over all C(n, m)
    subsets.
    """
    if not 0 <= m <= n:
        raise ValueError(f"invalid dimensions: need 0 <= m <= n, got n={n}, m={m}")
    rng = seed.rng()
    x = BitString(rng.integers(0, 2, size=n, dtype=np.uint8))
    emb = np.sort(rng.permutation(n)[:m]).astype(np.int64)
    return Disorder(x, x.take(emb), DisorderLaw.PLANTED, planted_embedding=emb)


def sample_channel(n: int, p: float, seed: Seed) -> Disorder:
    """Uniform x with each bit deleted independently with probability p: |y| is
    Binomial(n, 1-p), and given |y| = m, P(x, y) = Z(x, y) / (2^n C(n, m))."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"deletion probability must lie in [0, 1], got {p}")
    rng = seed.rng()
    x = BitString(rng.integers(0, 2, size=n, dtype=np.uint8))
    keep = rng.random(n) >= p
    return Disorder(x, BitString(x.bits[keep]), DisorderLaw.CHANNEL)


def block_displacements(x: BitString, b: int) -> np.ndarray:
    """|#ones - #zeros| for each of the floor(|x|/b) contiguous length-b blocks."""
    if b <= 0 or b > len(x):
        raise ValueError(f"invalid block length {b} for a string of length {len(x)}")
    nblocks = len(x) // b
    sums = x.bits[: nblocks * b].reshape(nblocks, b).sum(axis=1, dtype=np.int64)
    return np.abs(2 * sums - b)


def is_typical(x: BitString, b: int) -> bool:
    """True when at least B/10 of the B = floor(|x|/b) blocks have displacement
    at least sqrt(b), compared exactly as displacement^2 >= b."""
    disp = block_displacements(x, b)
    count = int(np.count_nonzero(disp.astype(np.int64) ** 2 >= b))
    return 10 * count >= disp.size
