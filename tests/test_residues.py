"""Residue arithmetic and the seeded stream: frozen values, group laws, uniformity."""
from __future__ import annotations

import random

import pytest
from scipy.stats import chi2

from privavg.residues import (
    Modulus,
    ModulusMismatchError,
    Residue,
    SeededRng,
    sum_mod,
)

M30 = Modulus(30)


def test_worked_instance_arithmetic():
    # the three-agent worked run exercises exactly these reductions
    assert int(Residue(22, M30) + Residue(4, M30)) == 26
    assert int(Residue(11, M30) - Residue(14, M30)) == 27
    assert int(Residue(3, M30) - Residue(8, M30)) == 25
    assert int(sum_mod([Residue(27, M30), Residue(25, M30)])) == 22


def test_wraparound_and_identity():
    p = Modulus(7)
    assert int(Residue(6, p) + Residue(1, p)) == 0
    assert int(Residue(0, p) - Residue(1, p)) == 6
    z = Residue(0, p)
    x = Residue(5, p)
    assert x + z == x
    assert int(x + (-x)) == 0


def test_reduce_normalizes_any_integer():
    assert int(Residue.reduce(-8, M30)) == 22
    assert int(Residue.reduce(74, M30)) == 14
    assert int(Residue.reduce(0, M30)) == 0
    assert int(Residue.reduce(-30, M30)) == 0


def test_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        Residue(30, M30)
    with pytest.raises(ValueError):
        Residue(-1, M30)
    with pytest.raises(TypeError):
        Residue(1.5, M30)  # type: ignore[arg-type]


def test_modulus_validation():
    with pytest.raises(ValueError):
        Modulus(1)
    with pytest.raises(ValueError):
        Modulus(0)
    with pytest.raises(ValueError):
        Modulus(2**64)
    Modulus(2**64 - 1)


def test_mixed_moduli_rejected():
    a = Residue(1, Modulus(5))
    b = Residue(1, Modulus(7))
    with pytest.raises(ModulusMismatchError):
        a + b
    with pytest.raises(ModulusMismatchError):
        a - b
    with pytest.raises(ModulusMismatchError):
        sum_mod([a, b])


def test_sum_mod_empty_and_permutation():
    assert int(sum_mod([], modulus=M30)) == 0
    with pytest.raises(ValueError):
        sum_mod([])
    rnd = random.Random(2024)
    for _ in range(50):
        p = Modulus(rnd.randrange(2, 1000))
        vals = [Residue(rnd.randrange(0, int(p)), p) for _ in range(rnd.randrange(0, 8))]
        shuffled = vals[:]
        rnd.shuffle(shuffled)
        assert sum_mod(vals, p) == sum_mod(shuffled, p)


def test_group_laws_randomized():
    rnd = random.Random(99)
    for _ in range(200):
        p = Modulus(rnd.randrange(2, 10**6))
        x, y, z = (Residue(rnd.randrange(0, int(p)), p) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert (x - y) + y == x
        assert int(x + (-x)) == 0


def test_stream_is_reproducible_and_pinned():
    draws = [SeededRng(42, 1).randint_below(30) for _ in range(1)]
    assert draws == [23]
    r = SeededRng(42, 1)
    assert [r.randint_below(30) for _ in range(10)] == [23, 14, 21, 21, 27, 8, 25, 29, 15, 23]
    again = SeededRng(42, 1)
    assert [again.randint_below(30) for _ in range(10)] == [23, 14, 21, 21, 27, 8, 25, 29, 15, 23]


def test_distinct_streams_diverge():
    a = SeededRng(42, 1)
    b = SeededRng(42, 2)
    c = SeededRng(43, 1)
    seq_a = [a.randint_below(1000) for _ in range(8)]
    assert seq_a != [b.randint_below(1000) for _ in range(8)]
    assert seq_a != [c.randint_below(1000) for _ in range(8)]
    # int stream k and tuple stream (k,) address the same stream
    assert SeededRng(7, 3).randint_below(10**6) == SeededRng(7, (3,)).randint_below(10**6)


def test_seed_validation():
    with pytest.raises(ValueError):
        SeededRng(-1)
    with pytest.raises(ValueError):
        SeededRng(2**64)
    with pytest.raises(TypeError):
        SeededRng("42")  # type: ignore[arg-type]


def test_randint_below_bounds():
    r = SeededRng(5)
    assert r.randint_below(1) == 0
    with pytest.raises(ValueError):
        r.randint_below(0)
    # awkward sizes: one past a power of two forces real rejection
    for n in (3, 5, 9, 17, 30, 257):
        assert all(r.randint_below(n) < n for _ in range(200))


def test_randrange_inclusive():
    r = SeededRng(11)
    draws = {r.randrange(1, 4) for _ in range(200)}
    assert draws == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        r.randrange(4, 1)


def test_uniform_residue_binary_frequency():
    # p=2: frequency of 1 over 10,000 draws stays within [0.45, 0.55]
    r = SeededRng(1234, 0)
    p = Modulus(2)
    ones = sum(r.randint_below(p.value) for _ in range(10_000))
    assert 0.45 <= ones / 10_000 <= 0.55


def test_uniform_residue_chi_square_p5():
    # p=5: chi-square over 50,000 draws below the 0.999 quantile of chi2(4)
    r = SeededRng(2025, 0)
    p = Modulus(5)
    counts = [0] * 5
    n = 50_000
    for _ in range(n):
        counts[r.randint_below(p.value)] += 1
    expected = n / 5
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < chi2.ppf(0.999, df=4)


def test_uniform_residue_covers_power_of_two_modulus():
    r = SeededRng(3, 0)
    p = Modulus(4)
    seen = {r.randint_below(p.value) for _ in range(400)}
    assert seen == {0, 1, 2, 3}
