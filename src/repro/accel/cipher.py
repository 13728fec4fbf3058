"""Product-cipher stream kernels: key-mix, S-box substitution, permutation.

The second real application beyond the PAL decoder: a heterogeneous
product-cipher pipeline in the style of Nawinne et al. (see PAPERS.md) —
alternating key mixing, substitution and transposition rounds, each stage a
coarsely-programmable stream accelerator behind the entry/exit-gateway
pair.  Three kernel types implement the classic product-cipher structure
over byte streams:

* :class:`KeyMixKernel` — XOR with a repeating key schedule (an involution:
  the same kernel decrypts),
* :class:`SBoxKernel` — byte substitution through a seeded 256-entry
  permutation table; the table *is* the kernel state, so a context switch
  moves ~256 words over the configuration bus — a deliberately heavy
  reconfiguration cost compared to the PAL kernels,
* :class:`PermuteBlockKernel` — transposition: buffers ``width`` samples
  and emits them permuted, the only kernel here with bursty output.

All three satisfy the :class:`~repro.accel.base.StreamKernel` contract
(functionally deterministic, picklable state snapshots), so they can be
context-switched between multiplexed cipher sessions exactly like the
CORDIC/FIR pair.  :func:`product_encrypt` / :func:`product_decrypt` give
the golden-reference chain used by the functional tests.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - numpy is imported where it computes
    import numpy as np

from .base import KernelError, StreamKernel

__all__ = [
    "KeyMixKernel",
    "SBoxKernel",
    "PermuteBlockKernel",
    "sbox_table",
    "invert_table",
    "block_permutation",
    "product_encrypt",
    "product_decrypt",
]


def sbox_table(seed: int) -> tuple[int, ...]:
    """A seeded byte-substitution table: a permutation of ``range(256)``."""
    rng = random.Random(int(seed))
    table = list(range(256))
    rng.shuffle(table)
    return tuple(table)


def invert_table(table: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a substitution/permutation table."""
    n = len(table)
    if sorted(table) != list(range(n)):
        raise KernelError(f"not a permutation of range({n})")
    inverse = [0] * n
    for i, v in enumerate(table):
        inverse[v] = i
    return tuple(inverse)


def block_permutation(width: int, seed: int) -> tuple[int, ...]:
    """A seeded transposition pattern over a ``width``-sample block."""
    if width < 1:
        raise KernelError(f"permutation width must be >= 1, got {width}")
    rng = random.Random(int(seed) ^ 0x5EED)
    perm = list(range(width))
    rng.shuffle(perm)
    return tuple(perm)


def _as_byte(sample: Any) -> int:
    """Coerce an incoming stream word to a byte (cipher kernels are 8-bit)."""
    value = int(sample.real) if isinstance(sample, complex) else int(sample)
    return value & 0xFF


class KeyMixKernel(StreamKernel):
    """XOR the stream with a repeating key schedule.

    An involution: feeding ciphertext through the same key position
    recovers the plaintext, so encryption and decryption share the kernel.
    The mutable state is the key plus the schedule position — a cheap
    context switch compared to :class:`SBoxKernel`.
    """

    rho = 1

    def __init__(self, key: Sequence[int] = (0x3A, 0xC5, 0x96, 0x0F)) -> None:
        key = tuple(int(k) & 0xFF for k in key)
        if not key:
            raise KernelError("key must have at least one byte")
        self._init_kwargs = {"key": key}
        self.key = key
        self.pos = 0

    def process(self, sample) -> list:
        out = _as_byte(sample) ^ self.key[self.pos]
        self.pos = (self.pos + 1) % len(self.key)
        return [out]

    def get_state(self) -> dict[str, Any]:
        return {"key": list(self.key), "pos": self.pos}

    def set_state(self, state: dict[str, Any]) -> None:
        try:
            self.key = tuple(int(k) & 0xFF for k in state["key"])
            self.pos = int(state["pos"])
        except (KeyError, TypeError) as err:
            raise KernelError(f"bad KeyMixKernel state: {err}") from err
        if not self.key or not 0 <= self.pos < len(self.key):
            raise KernelError(f"bad KeyMixKernel state: pos {self.pos} for "
                              f"{len(self.key)}-byte key")


class SBoxKernel(StreamKernel):
    """Byte substitution through a 256-entry table.

    The table is part of the state snapshot, so every context switch
    transfers ~256 words over the configuration bus — the product cipher's
    reconfiguration time is dominated by this kernel, giving the scenario a
    markedly different ``R_s`` profile from the PAL decoder.
    """

    rho = 1

    def __init__(self, table: Sequence[int] | None = None, seed: int = 0) -> None:
        if table is None:
            table = sbox_table(seed)
        self._init_kwargs = {"table": tuple(table)}
        self.set_state({"table": list(table)})

    def process(self, sample) -> list:
        return [self.table[_as_byte(sample)]]

    def get_state(self) -> dict[str, Any]:
        return {"table": list(self.table)}

    def set_state(self, state: dict[str, Any]) -> None:
        try:
            table = tuple(int(v) for v in state["table"])
        except (KeyError, TypeError) as err:
            raise KernelError(f"bad SBoxKernel state: {err}") from err
        if sorted(table) != list(range(256)):
            raise KernelError("S-box table must be a permutation of range(256)")
        self.table = table


class PermuteBlockKernel(StreamKernel):
    """Transposition stage: emit every ``width`` samples permuted.

    Output is bursty — nothing for ``width - 1`` samples, then the whole
    permuted block at once — but the long-run :attr:`output_ratio` stays 1,
    so the exit gateway's drained-block accounting is unchanged.  ``rho``
    defaults to 2 cycles/sample, making the cipher chain heterogeneous
    (the analysis' ``c0 = max(ε, ρ_A, δ)`` no longer collapses to ε).
    """

    rho = 2

    def __init__(self, perm: Sequence[int] = (1, 3, 0, 2), rho: int | None = None) -> None:
        perm = tuple(int(p) for p in perm)
        self._init_kwargs = {"perm": perm}
        if rho is not None:
            self.rho = int(rho)
        self.set_state({"perm": list(perm), "buffer": []})

    @property
    def width(self) -> int:
        return len(self.perm)

    def process(self, sample) -> list:
        self.buffer.append(_as_byte(sample))
        if len(self.buffer) < self.width:
            return []
        block, self.buffer = self.buffer, []
        return [block[i] for i in self.perm]

    def get_state(self) -> dict[str, Any]:
        return {"perm": list(self.perm), "buffer": list(self.buffer)}

    def set_state(self, state: dict[str, Any]) -> None:
        try:
            perm = tuple(int(p) for p in state["perm"])
            buffer = [int(b) & 0xFF for b in state["buffer"]]
        except (KeyError, TypeError) as err:
            raise KernelError(f"bad PermuteBlockKernel state: {err}") from err
        if sorted(perm) != list(range(len(perm))):
            raise KernelError(
                f"perm must be a permutation of range({len(perm)}), got {perm}"
            )
        if len(buffer) >= len(perm):
            raise KernelError("buffered residue longer than the permutation width")
        self.perm = perm
        self.buffer = buffer

    @property
    def output_ratio(self) -> Fraction:
        return Fraction(1)


# ---------------------------------------------------------------- functional
def _chain(data: Iterable, kernels: Sequence[StreamKernel]) -> np.ndarray:
    import numpy as np

    samples: Iterable = data
    for kernel in kernels:
        out: list[int] = []
        for s in samples:
            out.extend(kernel.process(s))
        samples = out
    return np.asarray(list(samples), dtype=np.int64)


def product_encrypt(
    data: Iterable,
    key: Sequence[int] = (0x3A, 0xC5, 0x96, 0x0F),
    sbox_seed: int = 0,
    perm: Sequence[int] = (1, 3, 0, 2),
) -> np.ndarray:
    """Golden-reference product cipher: key-mix → S-box → permute."""
    return _chain(data, [
        KeyMixKernel(key),
        SBoxKernel(seed=sbox_seed),
        PermuteBlockKernel(perm),
    ])


def product_decrypt(
    data: Iterable,
    key: Sequence[int] = (0x3A, 0xC5, 0x96, 0x0F),
    sbox_seed: int = 0,
    perm: Sequence[int] = (1, 3, 0, 2),
) -> np.ndarray:
    """Inverse chain: un-permute → inverse S-box → key-mix."""
    table = invert_table(sbox_table(sbox_seed))
    return _chain(data, [
        PermuteBlockKernel(invert_table(perm)),
        SBoxKernel(table),
        KeyMixKernel(key),
    ])
