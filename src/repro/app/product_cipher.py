"""The product-cipher pipeline application (second real chain).

A heterogeneous product cipher in the style of Nawinne et al. (PAPERS.md):
``sessions`` independent byte streams share one key-mix → S-box → permute
accelerator chain behind an entry/exit-gateway pair.  Like the PAL decoder
(:mod:`repro.app.pal_decoder`) the application exists in two modes over
identical kernels:

* :func:`encrypt_functional` / the :func:`~repro.accel.cipher.product_decrypt`
  inverse — the golden reference, kernels run back-to-back with no timing,
* :func:`build_cipher_soc` / :func:`run_cipher_on_soc` — the full
  architecture: the three cipher tiles multiplexed between sessions by the
  gateway pair, each session carrying its own key schedule and S-box in its
  kernel-context snapshots.

The chain differs from the PAL decoder in exactly the dimensions the
scenario registry needs for diversity: **three** heterogeneous tiles
(``ρ_permute = 2`` breaks the all-ones firing profile), a reconfiguration
cost dominated by the 256-word S-box state, and session streams of equal
rate class instead of the PAL 8:1 stage split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from ..accel.cipher import (
    KeyMixKernel,
    PermuteBlockKernel,
    SBoxKernel,
    block_permutation,
)
from ..arch import Compute, Get, MPSoC, Put, TaskSpec
from ..core import AcceleratorSpec, GatewaySystem, ParameterError, StreamSpec

if TYPE_CHECKING:  # pragma: no cover - numpy is imported where it computes
    import numpy as np

__all__ = [
    "ProductCipherConfig",
    "CipherSocHandles",
    "cipher_gateway_system",
    "encrypt_functional",
    "build_cipher_soc",
    "run_cipher_on_soc",
]


@dataclass(frozen=True)
class ProductCipherConfig:
    """Parameters of the product-cipher deployment.

    ``eta`` is the common session block size (every session is the same
    rate class); it must be a multiple of the permutation ``width`` so a
    block drains the transposition buffer completely — otherwise residue
    bytes leak between context switches.
    """

    sessions: int = 3
    eta: int = 24
    width: int = 8
    key: tuple[int, ...] = (0x3A, 0xC5, 0x96, 0x0F)
    sbox_seed: int = 7
    entry_copy: int = 4
    exit_copy: int = 1
    permute_rho: int = 2
    reconfigure_cycles: int = 300
    ni_capacity: int = 2
    load_pct: int = 30

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ParameterError("product cipher needs at least one session")
        if self.width < 1:
            raise ParameterError(f"permutation width must be >= 1, got {self.width}")
        if self.eta % self.width:
            raise ParameterError(
                f"eta ({self.eta}) must be a multiple of the permutation "
                f"width ({self.width}) so blocks drain the transposition buffer"
            )
        if not 1 <= self.load_pct <= 95:
            raise ParameterError(f"load_pct must be in [1, 95], got {self.load_pct}")

    @property
    def perm(self) -> tuple[int, ...]:
        return block_permutation(self.width, self.sbox_seed)

    def session_states(self, session: int) -> list[dict]:
        """Kernel contexts for one session: rotated key, session S-box.

        Each session gets its own key rotation and its own substitution
        table, so a context switch genuinely swaps cipher state — the
        gateway cannot cheat by leaving a table behind.
        """
        key = tuple(self.key[(i + session) % len(self.key)] ^ (session * 17) & 0xFF
                    for i in range(len(self.key)))
        return [
            KeyMixKernel(key).get_state(),
            SBoxKernel(seed=self.sbox_seed + session).get_state(),
            PermuteBlockKernel(self.perm).get_state(),
        ]


def cipher_gateway_system(config: ProductCipherConfig | None = None) -> GatewaySystem:
    """The cipher deployment as a :class:`GatewaySystem` for the analysis.

    Session rates split a ``load_pct`` aggregate Eq. 5 load across equally
    weighted sessions; the reconfiguration time models the S-box-dominated
    context transfer.
    """
    config = config or ProductCipherConfig()
    c0 = max(config.entry_copy, config.exit_copy, 1, config.permute_rho)
    mu = Fraction(config.load_pct, 100 * c0 * config.sessions)
    streams = tuple(
        StreamSpec(f"enc{i}", mu, config.reconfigure_cycles,
                   block_size=config.eta)
        for i in range(config.sessions)
    )
    accelerators = (
        AcceleratorSpec("keymix", 1),
        AcceleratorSpec("sbox", 1),
        AcceleratorSpec("permute", config.permute_rho),
    )
    return GatewaySystem(
        accelerators=accelerators,
        streams=streams,
        entry_copy=config.entry_copy,
        exit_copy=config.exit_copy,
        ni_capacity=config.ni_capacity,
    )


# --------------------------------------------------------------- functional
def encrypt_functional(
    plaintext: np.ndarray, config: ProductCipherConfig, session: int = 0
) -> np.ndarray:
    """Golden-reference encryption of one session's byte stream."""
    import numpy as np

    states = config.session_states(session)
    key = tuple(states[0]["key"])
    table = tuple(states[1]["table"])
    out: list[int] = []
    keymix = KeyMixKernel(key)
    sbox = SBoxKernel(table)
    permute = PermuteBlockKernel(config.perm)
    for sample in plaintext:
        for mixed in keymix.process(sample):
            for substituted in sbox.process(mixed):
                out.extend(permute.process(substituted))
    return np.asarray(out, dtype=np.int64)


# ------------------------------------------------------------ architectural
@dataclass
class CipherSocHandles:
    """Handles into a built product-cipher MPSoC."""

    soc: MPSoC
    chain: object  # SharedChain
    in_fifos: dict[str, object]
    out_fifos: dict[str, object]
    collected: dict[str, list]

    def stream_metrics(self) -> dict:
        return self.chain.stream_metrics()


def build_cipher_soc(
    config: ProductCipherConfig,
    plaintexts: dict[str, np.ndarray],
) -> CipherSocHandles:
    """Wire the cipher sessions onto the shared three-tile MPSoC.

    ``plaintexts`` maps session stream names (``enc0`` … ``encN``) to byte
    arrays; every array length must be a multiple of ``config.eta``.
    """
    names = [f"enc{i}" for i in range(config.sessions)]
    if set(plaintexts) != set(names):
        raise ParameterError(
            f"plaintexts must cover exactly the sessions {names}, "
            f"got {sorted(plaintexts)}"
        )
    for name, data in plaintexts.items():
        if len(data) % config.eta:
            raise ParameterError(
                f"session {name!r}: {len(data)} samples is not a whole "
                f"number of η={config.eta} blocks"
            )

    soc = MPSoC(n_stations=7)
    producer = soc.add_processor("keysrc")
    consumer = soc.add_processor("sink")
    entry_station = 2
    exit_station = entry_station + 4  # entry + 3 cipher tiles + exit

    in_fifos = {}
    out_fifos = {}
    for name in names:
        n = len(plaintexts[name])
        in_fifos[name] = producer.fifo_to(
            entry_station, capacity=n + 8, name=f"{name}.in"
        )
        out_fifos[name] = soc.software_fifo(
            exit_station, consumer, capacity=n + 8, name=f"{name}.out"
        )

    kernels = [
        KeyMixKernel(config.key),
        SBoxKernel(seed=config.sbox_seed),
        PermuteBlockKernel(config.perm, rho=config.permute_rho),
    ]
    configs = [
        {"name": name, "eta": config.eta,
         "in_fifo": in_fifos[name], "out_fifo": out_fifos[name],
         "states": config.session_states(i),
         "reconfigure_cycles": config.reconfigure_cycles}
        for i, name in enumerate(names)
    ]
    chain = soc.shared_chain(
        "cipher", kernels, configs,
        entry_copy=config.entry_copy, exit_copy=config.exit_copy,
        ni_capacity=config.ni_capacity,
    )

    collected: dict[str, list] = {name: [] for name in names}

    def feeder(name):
        data = plaintexts[name]

        def gen():
            for b in data:
                yield Put(in_fifos[name], int(b) & 0xFF)
        return gen

    def drainer(name):
        total = len(plaintexts[name])

        def gen():
            for _ in range(total):
                word = yield Get(out_fifos[name])
                yield Compute(1)
                collected[name].append(int(word))
        return gen

    for name in names:
        producer.add_task(TaskSpec(f"feed:{name}", feeder(name)))
        consumer.add_task(TaskSpec(f"drain:{name}", drainer(name)))
    producer.start()
    consumer.start()
    return CipherSocHandles(soc, chain, in_fifos, out_fifos, collected)


def run_cipher_on_soc(
    config: ProductCipherConfig,
    plaintexts: dict[str, np.ndarray],
    horizon: int | None = None,
) -> tuple[dict[str, np.ndarray], CipherSocHandles]:
    """Encrypt every session on the MPSoC; return per-session ciphertexts.

    The integration tests assert the result equals
    :func:`encrypt_functional` per session — sharing the three cipher tiles
    between sessions is functionally transparent.
    """
    import numpy as np

    handles = build_cipher_soc(config, plaintexts)
    if horizon is None:
        total = sum(len(d) for d in plaintexts.values())
        blocks = sum(
            max(1, len(d) // config.eta) for d in plaintexts.values()
        ) + len(plaintexts)
        per_sample = 2 * (config.entry_copy + config.permute_rho + 12)
        horizon = int(total * per_sample
                      + blocks * (config.reconfigure_cycles + 600) + 20_000)
    handles.soc.run(until=horizon)
    out = {
        name: np.asarray(values, dtype=np.int64)
        for name, values in handles.collected.items()
    }
    return out, handles
