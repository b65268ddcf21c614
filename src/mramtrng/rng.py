"""Counter-based pseudo-randomness for the chip simulator.

Every stochastic decision in a simulated write is a pure function of
(chip seed, cell index, round index, draw stream).  There is no mutable
generator state, so measurement rows can be evaluated in any order, on any
subset of cells, serially or in parallel, and always reproduce the same
bits.  This is what makes sub-array fast paths (e.g. harvesting only the
selected cells) bit-identical to a full-array simulation.

The mixer is the SplitMix64 finalizer (Steele et al., "Fast splittable
pseudorandom number generators"), applied elementwise with numpy uint64
arithmetic.  Keys for the two input dimensions are derived from two
decorrelated seed words so that (cell, round) collisions cannot occur by
linear cancellation.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_SEED_TWEAK = np.uint64(0xD1B54A32D192ED03)

# 2**-53, for mapping the top 53 bits of a word onto [0, 1)
_INV_2_53 = float(2.0**-53)
_TWO_53 = float(2.0**53)


def mix64(x: np.ndarray | int) -> np.ndarray:
    """SplitMix64 finalizer, vectorised over uint64 input.

    Bijective on uint64, with full avalanche: applied to a counter it is
    exactly the SplitMix64 stream.
    """
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):  # modular wrap is the algorithm
        z = x >> np.uint64(30)  # a new array: the input is left as it is
        z ^= x
        z *= _MIX_A
        z ^= z >> np.uint64(27)
        z *= _MIX_B
        z ^= z >> np.uint64(31)
    return z


class CounterRng:
    """Stateless keyed generator over the (cell, round, stream) lattice."""

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must fit in uint64, got {seed}")
        self.seed = int(seed)
        s = np.uint64(self.seed)
        with np.errstate(over="ignore"):
            self._k_cell = mix64(s * _GOLDEN + _GOLDEN)
            self._k_round = mix64((s ^ _SEED_TWEAK) * _GOLDEN + _MIX_B)

    def cell_keys(self, cell_indices: np.ndarray) -> np.ndarray:
        """Per-cell base keys; cacheable because they depend only on the seed.

        ``cell_indices`` may be any integer array (global cell numbers).
        """
        with np.errstate(over="ignore"):
            idx = np.asarray(cell_indices, dtype=np.uint64)
            return mix64(idx * _GOLDEN + self._k_cell)

    def round_keys(self, round_indices: np.ndarray | int, stream: int) -> np.ndarray:
        """Keys of the given rounds in one draw stream; the word of a
        (cell, round, stream) is mix64(cell key ^ round key)."""
        with np.errstate(over="ignore"):
            c = np.asarray(round_indices, dtype=np.uint64) * _GOLDEN + np.uint64(stream) * _MIX_A
            return mix64(c + self._k_round)

    def words(self, cell_keys: np.ndarray, round_index: int, stream: int) -> np.ndarray:
        """One uint64 word per cell for the given round and draw stream."""
        return mix64(cell_keys ^ self.round_keys(round_index, stream))

    def uniforms(self, cell_keys: np.ndarray, round_index: int, stream: int) -> np.ndarray:
        """One float64 uniform in [0, 1) per cell."""
        return draws(cell_keys, self.round_keys(round_index, stream)).astype(np.float64) * _INV_2_53


def draws(cell_keys: np.ndarray, round_key: np.uint64) -> np.ndarray:
    """The top 53 bits of each cell's word under one round key; the cell's
    uniform is exactly this times 2**-53."""
    w = mix64(cell_keys ^ round_key)
    w >>= np.uint64(11)
    return w


def draw_threshold(p: np.ndarray | float) -> np.ndarray:
    """uint64 thresholds with ``draw < draw_threshold(p)`` exactly when
    ``draw * 2**-53 < p``, for probabilities p in [0, 1].

    Both sides are exact: p * 2**53 only shifts the exponent, and a draw
    below 2**53 is an integer that float64 holds exactly, so a draw is
    below p * 2**53 exactly when it is below its ceiling.
    """
    return np.ceil(np.asarray(p, dtype=np.float64) * _TWO_53).astype(np.uint64)


def hash_words16(seed: int, indices: np.ndarray, stream: int = 0) -> np.ndarray:
    """Deterministic 16-bit words keyed by (seed, index); used for the
    pseudo-random data pattern."""
    with np.errstate(over="ignore"):
        idx = np.asarray(indices, dtype=np.uint64)
        base = mix64(np.uint64(seed) * _GOLDEN + _SEED_TWEAK)
        w = mix64(idx * _GOLDEN + base + np.uint64(stream) * _MIX_B)
    return (w >> np.uint64(48)).astype(np.uint16)
