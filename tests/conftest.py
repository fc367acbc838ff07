"""The suite's hypothesis profile and its spec fixtures."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

import blenderforge as bf
from builders import W1_IRR, df_spec, sf_spec

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    database=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def sf1_setup():
    """Saddle focus with irrational theta and omega/2pi = 1/4 (residue search)."""
    spec = sf_spec()
    moduli = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.RationalClass(1, 4)
    )
    return spec, moduli


@pytest.fixture
def df1_setup():
    """Double focus with irrational theta, omega1/2pi = 1/3, omega2/2pi = 1/5."""
    spec = df_spec()
    moduli = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.RationalClass(1, 3), bf.RationalClass(1, 5)
    )
    return spec, moduli


@pytest.fixture
def sf3_setup():
    spec = sf_spec(w_hat=W1_IRR)
    moduli = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.IRRATIONAL,
        flags={"theta+omega1+one": "independent"},
    )
    return spec, moduli
