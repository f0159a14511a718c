"""Canonical residue arithmetic and reproducible randomness.

Everything downstream (mask algebra, the enumeration oracles, the event
simulator) leans on two guarantees made here: residues are always stored as
the least non-negative representative, and random residues are exactly
uniform, with no modulo bias.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Modulus",
    "ModulusMismatchError",
    "Residue",
    "SeededRng",
    "sum_mod",
]

_U64 = 2**64
BLOCK = 256  # words per refill of a stream's scalar-draw buffer


class ModulusMismatchError(ValueError):
    """Arithmetic attempted between residues with different moduli."""


@dataclass(frozen=True)
class Modulus:
    """A ring size for residue arithmetic. Must fit in an unsigned 64-bit word."""

    value: int

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise TypeError(f"modulus must be an int, got {type(self.value).__name__}")
        if not 1 < self.value < _U64:
            raise ValueError(f"modulus must satisfy 1 < p < 2**64, got {self.value}")

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Residue:
    """An element of Z_p held as its least non-negative representative."""

    value: int
    modulus: Modulus

    def __post_init__(self) -> None:
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise TypeError(f"residue value must be an int, got {type(self.value).__name__}")
        if not 0 <= self.value < self.modulus.value:
            raise ValueError(
                f"residue {self.value} outside [0, {self.modulus.value}); "
                "use Residue.reduce for arbitrary integers"
            )

    @classmethod
    def reduce(cls, x: int, modulus: Modulus) -> "Residue":
        """Normalize an arbitrary integer (negatives included) into Z_p."""
        return cls(x % modulus.value, modulus)

    def _check(self, other: "Residue") -> None:
        if self.modulus != other.modulus:
            raise ModulusMismatchError(
                f"mixed moduli {self.modulus.value} and {other.modulus.value}"
            )

    def __add__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value + other.value) % self.modulus.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        self._check(other)
        return Residue((self.value - other.value) % self.modulus.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue((-self.value) % self.modulus.value, self.modulus)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus.value}"


def sum_mod(values: Sequence[Residue] | Iterable[Residue], modulus: Optional[Modulus] = None) -> Residue:
    """Sum residues sharing one modulus; the empty sum needs `modulus` spelled out."""
    total = 0
    m = modulus
    for v in values:
        if m is None:
            m = v.modulus
        elif v.modulus != m:
            raise ModulusMismatchError(f"mixed moduli {m.value} and {v.modulus.value}")
        total += v.value
    if m is None:
        raise ValueError("empty sum has no modulus; pass one explicitly")
    return Residue(total % m.value, m)


def _range_mask(n: int) -> int:
    # the smallest all-ones word covering [0, n); a masked word is kept iff < n
    if n <= 0 or n >= _U64:
        raise ValueError(f"range size must satisfy 0 < n < 2**64, got {n}")
    return (1 << (n - 1).bit_length()) - 1


class SeededRng:
    """Deterministic random stream addressed by (seed, stream).

    The mapping is part of the external interface and must stay stable:
    64-bit words come from PCG64 keyed by SeedSequence(seed, spawn_key=stream),
    consumed via the bit generator's raw output. Residues are drawn by masking
    a word to the smallest power-of-two range covering p and rejecting
    out-of-range words, so every residue is exactly equally likely.

    Scalar draws take words from a buffer refilled `BLOCK` words at a time;
    `random_raw(k)` yields the same words as k single calls. Bulk draws use
    up the buffer first, then read the rest in one call and step the
    generator back over the words they did not use, so every draw still
    reads the stream in order and leaves it where single draws would.
    """

    def __init__(self, seed: int, stream: Union[int, tuple] = 0):
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError("seed must be an int")
        if not 0 <= seed < _U64:
            raise ValueError(f"seed must fit in an unsigned 64-bit word, got {seed}")
        key = (stream,) if isinstance(stream, int) else tuple(stream)
        self.seed = seed
        self.stream = key if len(key) != 1 else key[0]
        import numpy as np  # on the first stream, not on `import privavg`

        self._bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
        self._raw = self._bitgen.random_raw
        self._words: list[int] = []  # buffered words, the next one last

    def randint_below(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection; n must fit in 64 bits."""
        if not 0 < n < _U64:
            _range_mask(n)  # raises, naming n
        mask = (1 << (n - 1).bit_length()) - 1  # _range_mask(n), one call fewer per draw
        if not mask:
            return 0
        words = self._words
        while True:
            if not words:
                words.extend(reversed(self._raw(BLOCK).tolist()))
            word = words.pop() & mask
            if word < n:
                return word

    def randints_below(self, n: int, k: int) -> np.ndarray:
        """The `k` integers that `k` calls of `randint_below(n)` would return,
        as a uint64 array, leaving the stream where those calls leave it.

        Buffered words go first. The shortfall is then read in one
        `random_raw` call sized from the acceptance rate n/(mask+1) plus four
        standard deviations; the words past the last one accepted are given
        back by stepping the generator back over them (PCG64 is an LCG, so
        `advance(2**128 - m)` undoes m words exactly). A read that comes up
        short keeps what it accepted and reads again."""
        for name, value in (("n", n), ("k", k)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        import numpy as np

        mask = _range_mask(n)
        if not mask or not k:
            return np.zeros(k, dtype=np.uint64)
        words = self._words
        head = []
        while words and len(head) < k:
            word = words.pop() & mask
            if word < n:
                head.append(word)
        kept = [np.array(head, dtype=np.uint64)] if head else []
        need = k - len(head)
        accept = n / (mask + 1)
        while need:
            size = math.ceil((need + 4 * math.sqrt(need * (1 - accept))) / accept)
            drawn = self._raw(size) & np.uint64(mask)
            hits = np.flatnonzero(drawn < np.uint64(n))[:need]
            kept.append(drawn[hits])
            need -= len(hits)
            if not need and hits[-1] < size - 1:
                self._bitgen.advance((1 << 128) - (size - 1 - int(hits[-1])))
        return kept[0] if len(kept) == 1 else np.concatenate(kept)

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randint_below(hi - lo + 1)
