import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqlab.core import (
    BitString,
    Disorder,
    DisorderLaw,
    Seed,
    all_bitstrings,
    embedded_length,
    is_typical,
    sample_channel,
    sample_null,
    sample_planted,
    sample_uniform_string,
)
from subseqlab.cli import build_parser
from subseqlab.partition import count_embeddings_exact


def test_bitstring_basics():
    s = BitString.from_text("0101")
    assert len(s) == 4
    assert s.to_text() == "0101"
    assert s[1] == 1
    assert s[1:3] == BitString.from_text("10")
    assert BitString.from_text("") == BitString.zeros(0)
    with pytest.raises(ValueError):
        BitString.from_text("012")
    with pytest.raises(ValueError):
        BitString([0, 2, 1])


def test_embedded_length_is_exact_on_the_p_grids():
    # alpha = 1 - p as the capacity curve forms it; the float product alone
    # floors one short at e.g. p = 0.9 (1 - 0.9 = 0.09999999999999998).
    n = 10_000
    for k in range(20):  # acceptance criterion 7's grid, 0.05*k
        assert embedded_length(1.0 - 0.05 * k, n) == math.floor((1 - Fraction(5 * k, 100)) * n)
    cli_grid = build_parser().parse_args(["figure1"]).grid.split(",")
    assert len(cli_grid) == 20
    for text in cli_grid:
        assert embedded_length(1.0 - float(text), n) == math.floor((1 - Fraction(text)) * n)
    assert embedded_length(1.0 - 0.8, n) == 2000
    assert embedded_length(1.0 - 0.9, n) == 1000
    assert embedded_length(0.7, 3) == 2 and embedded_length(0.0, 5) == 0


def test_bitstring_immutable():
    s = BitString.from_text("10")
    with pytest.raises(ValueError):
        s.bits[0] = 0


def test_seed_validation_and_substreams():
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(0, 1 << 64)
    s = Seed(5, 3)
    assert s.substream(4) == Seed(5, 7)
    a = s.rng().integers(0, 1 << 30)
    assert a == Seed(5, 3).rng().integers(0, 1 << 30)
    assert s.substream(1).rng().integers(0, 1 << 30) != a or True  # distinct streams, no crash


def test_sample_uniform_empty_and_determinism():
    assert len(sample_uniform_string(0, Seed(1))) == 0
    a = sample_uniform_string(8, Seed(123))
    b = sample_uniform_string(8, Seed(123))
    assert a == b
    assert a != sample_uniform_string(8, Seed(124)) or True


def test_sample_uniform_bit_mean():
    # 10^5 independent single-bit draws; 0.5 +- 0.005 is a 3.2 sigma band.
    base = Seed(2024)
    total = sum(sample_uniform_string(1, base.substream(i))[0] for i in range(100_000))
    assert 0.495 <= total / 100_000 <= 0.505


def test_sample_null():
    d = sample_null(4, 2, Seed(1))
    assert d.law is DisorderLaw.NULL and len(d.x) == 4 and len(d.y) == 2
    assert d == sample_null(4, 2, Seed(1))
    assert len(sample_null(5, 0, Seed(2)).y) == 0
    with pytest.raises(ValueError):
        sample_null(3, 4, Seed(0))


def test_sample_planted_consistency():
    d = sample_planted(6, 3, Seed(9))
    assert d.law is DisorderLaw.PLANTED
    assert d.y == d.x.take(d.planted_embedding)
    full = sample_planted(5, 5, Seed(3))
    assert full.y == full.x
    assert list(full.planted_embedding) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        sample_planted(3, 4, Seed(0))


def test_sample_planted_subset_law():
    # All C(5,2) = 10 subsets equally likely: 0.1 +- 0.01 is a 10 sigma band.
    counts = {}
    base = Seed(77)
    draws = 100_000
    for i in range(draws):
        emb = tuple(sample_planted(5, 2, base.substream(i)).planted_embedding)
        counts[emb] = counts.get(emb, 0) + 1
    assert len(counts) == 10
    for c in counts.values():
        assert abs(c / draws - 0.1) < 0.01


def test_planted_always_embeddable():
    for i in range(50):
        d = sample_planted(12, 5, Seed(4).substream(i))
        assert count_embeddings_exact(d.x, d.y) >= 1


def test_disorder_invariants_enforced():
    x = BitString.from_text("1010")
    with pytest.raises(ValueError):
        Disorder(x, BitString.from_text("11"), DisorderLaw.PLANTED, planted_embedding=np.array([0, 1]))
    with pytest.raises(ValueError):
        Disorder(x, BitString.from_text("11"), DisorderLaw.NULL, planted_embedding=np.array([0, 2]))


def test_deletion_channel_edges():
    d = sample_channel(50, 0.0, Seed(6))
    assert d.y == d.x
    assert len(sample_channel(50, 1.0, Seed(6)).y) == 0
    with pytest.raises(ValueError):
        sample_channel(50, 1.5, Seed(6))


def test_deletion_channel_mean_length():
    base = Seed(88)
    total = sum(len(sample_channel(10_000, 0.3, base.substream(i)).y) for i in range(1000))
    assert abs(total / 1000 - 7000) < 50


def test_deletion_channel_conditioned_matches_subset_law():
    # Conditioned on |y| = m, the channel output is x restricted to a uniform
    # m-subset, so (x, y) appears with probability Z(x, y) / (2^n C(n, m)).
    # Every cell, unseen ones included, lies within 5 standard errors.
    n, m, p = 4, 2, 0.5
    base = Seed(99)
    counts = {}
    kept = 0
    for i in range(60_000):
        d = sample_channel(n, p, base.substream(i))
        if len(d.y) == m:
            kept += 1
            key = (d.x.to_text(), d.y.to_text())
            counts[key] = counts.get(key, 0) + 1
    assert kept > 20_000
    for x in all_bitstrings(n):
        for y in all_bitstrings(m):
            expected = count_embeddings_exact(x, y) / (2**n * math.comb(n, m))
            observed = counts.get((x.to_text(), y.to_text()), 0) / kept
            assert abs(observed - expected) <= 5 * math.sqrt(expected * (1 - expected) / kept)


def test_sample_channel():
    d = sample_channel(100, 0.4, Seed(11))
    assert d.law is DisorderLaw.CHANNEL
    assert d.planted_embedding is None
    assert count_embeddings_exact(d.x, d.y) >= 1


def test_is_typical_edges():
    assert is_typical(BitString.ones(40), 5)
    assert not is_typical(BitString.from_text("01" * 20), 4)
    with pytest.raises(ValueError):
        is_typical(BitString.ones(4), 0)
    with pytest.raises(ValueError):
        is_typical(BitString.ones(4), 5)


def test_is_typical_frequency_at_scale():
    base = Seed(12)
    typical = sum(is_typical(sample_uniform_string(9600, base.substream(i)), 96) for i in range(1000))
    assert typical >= 999


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_sampler_purity(n, master):
    s = Seed(master)
    assert sample_uniform_string(n, s) == sample_uniform_string(n, s)
