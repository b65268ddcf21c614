"""Shared fixtures: a small chip specimen so most tests stay fast."""

import dataclasses
import os
import struct

import numpy as np
import pytest
from hypothesis import settings

from mramtrng.characterize import SelectionThresholds, select_cells
from mramtrng.device import (
    ChipConfig,
    EnvCoeffs,
    MarginalAddressPopulation,
    TauComponent,
    TimingParams,
    create_chip,
    fold_campaigns,
)

# every property test replays the same examples and has no time limit; each
# sets only its max_examples
settings.register_profile("mramtrng", derandomize=True, deadline=None, database=None)
settings.load_profile("mramtrng")


def small_config(num_addresses: int = 2048) -> ChipConfig:
    """A scaled-down copy of the default recipe (same mixture shape)."""
    return ChipConfig(
        chip_id="unit-test",
        num_addresses=num_addresses,
        tau_components=(
            TauComponent(0.3457, 0.9, 0.3),
            TauComponent(0.3221, 1.78, 0.03),
            TauComponent(0.3322, 4.3, 0.5),
        ),
        metastable_frac=0.1,
        bias_alpha=4.0,
        bias_beta=4.0,
        marginal=MarginalAddressPopulation(weight=0.0065),
        env=EnvCoeffs(),
    )


def cell_set(name: str, num_cells: int) -> np.ndarray | None:
    """The cells that a write pattern of this name writes 0 to, as an index
    array, or None for "solid" (every cell).  A cell written 1 never toggles
    from the all-ones reset, so a campaign writing the pattern is the
    campaign of these cells, which is why the program writes only 0."""
    c = np.arange(num_cells)
    if name == "solid":
        return None
    if name == "checkerboard":  # 0xAAAA and 0x5555 at alternate addresses
        return c[(c // 16 + c % 16) % 2 == 1]
    if name == "striped":  # 0xFF00 and 0x00FF in alternate 16-address stripes
        return c[(c // 256) % 2 != (c % 16) // 8]
    if name == "random":
        return c[np.random.default_rng(5).random(num_cells) < 0.5]
    raise ValueError(f"unknown cell set {name!r}")


CELL_SETS = ("solid", "checkerboard", "striped", "random")


def bits_file(bits) -> bytes:
    """The .bits file of ``bits``, written without the package: the u64
    little-endian bit count, then the bits packed MSB first."""
    return struct.pack("<Q", len(bits)) + np.packbits(bits).tobytes()


def de_bruijn(order: int) -> np.ndarray:
    """The binary de Bruijn sequence of ``order`` (2**order bits): read
    cyclically, it holds every order-bit template exactly once."""
    a = [0] * (2 * order)
    seq = []

    def extend(t: int, p: int) -> None:
        if t > order:
            if order % p == 0:
                seq.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        extend(t + 1, p)
        if a[t - p] == 0:
            a[t] = 1
            extend(t + 1, t)

    extend(1, 1)
    return np.array(seq, dtype=bool)


def first_cells(sel, k):
    """``sel`` cut down to its first ``k`` selected cells."""
    mask = np.zeros_like(sel.mask)
    mask[sel.cell_indices[:k]] = True
    return dataclasses.replace(sel, mask=mask)


@pytest.fixture(scope="session")
def small_chip():
    return create_chip(small_config(), seed=7)


@pytest.fixture(scope="session")
def small_selection(small_chip):
    """The cells of ``small_chip`` that flip 6 to 19 times in 20 rounds at 2.5 ns."""
    (fold,) = fold_campaigns(small_chip, [TimingParams(2.5)], n=20)
    sel = select_cells(fold.flip_counts, 20, SelectionThresholds(6))
    assert not sel.empty
    return sel


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not
    reaped: after it, this process must have no child at all."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
