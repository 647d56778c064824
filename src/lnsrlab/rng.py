"""Named, reproducible random-number streams.

Every stochastic component draws from its own stream derived from
``(seed, stream id)``, so e.g. the data-shuffling order is identical across
ablation modes that consume different amounts of noise randomness.
Per-example noise generators are derived further down from
``(seed, stream id, epoch, example counter)``, which keeps consumption in
one example from shifting the draws of any other.
"""

import numpy as np

from .errors import ContractError

_STREAM_IDS = {
    "init": 0,
    "order": 1,
    "noise": 2,
    "data": 3,
    "probe": 4,
    "theory": 5,
}


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """Generator for the named top-level stream of a run seed."""
    return substream_rng(seed, name)


def substream_rng(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Generator for a sub-stream, e.g. per (epoch, example) noise draws."""
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    if name not in _STREAM_IDS:
        raise ContractError(f"unknown stream {name!r}; expected one of {sorted(_STREAM_IDS)}")
    entropy = [seed, _STREAM_IDS[name], *indices]
    return np.random.default_rng(entropy)
