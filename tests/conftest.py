"""Shared fixtures: a small chip specimen so most tests stay fast."""

import dataclasses

import numpy as np
import pytest

from mramtrng.characterize import SelectionThresholds, count_flips, select_cells
from mramtrng.device import (
    ChipConfig,
    DataPattern,
    EnvCoeffs,
    MarginalAddressPopulation,
    TauComponent,
    TimingParams,
    create_chip,
    measure,
)


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
    m = measure(small_chip, DataPattern.solid(0), TimingParams.reduced(2.5), n=20)
    sel = select_cells(count_flips(m), 20, SelectionThresholds(6))
    assert not sel.empty
    return sel


@pytest.fixture()
def fresh_small_chip():
    return create_chip(small_config(), seed=7)
