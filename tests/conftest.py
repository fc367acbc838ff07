"""Shared spec builders and seeded generators for the test suite."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, settings

import blenderforge as bf
from blenderforge.rng import philox_rng

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    database=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

SQRT2 = math.sqrt(2)


def sf_spec(theta=SQRT2, w_hat=0.25, gamma=2.0, A=1.4, B=1.0, b=1.0, u=1.0,
            eta1=0.4, eta2=1.1, delta=0.1, d=4, d1=1):
    return bf.CycleSpec(
        cycle_type="saddle_focus",
        lam=abs(gamma) ** (-theta), gamma=gamma,
        omega1=2 * math.pi * w_hat,
        A_coef=A, B_coef=B, b_coef=b, u_minus=u,
        eta1=eta1, eta2=eta2,
        d=d, d1=d1, d2=d1 + 1, delta=delta, c_frac=0.5,
    )


def df_spec(theta=SQRT2, w1_hat=1 / 3, w2_hat=1 / 5, gamma=2.0,
            A=1.2, B=0.9, b=0.7, u=(1.0, 0.4),
            eta1=0.3, eta2=1.1, eta3=0.25, delta=0.01, d=5, d1=2):
    return bf.CycleSpec(
        cycle_type="double_focus",
        lam=gamma ** (-theta), gamma=gamma,
        omega1=2 * math.pi * w1_hat, omega2=2 * math.pi * w2_hat,
        A_coef=A, B_coef=B, b_coef=b, u_minus=u,
        eta1=eta1, eta2=eta2, eta3=eta3,
        d=d, d1=d1, d2=d1 + 1, delta=delta, c_frac=0.5,
    )


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


W1_IRR = 1 / math.sqrt(7)


@pytest.fixture
def sf3_setup():
    spec = sf_spec(w_hat=W1_IRR)
    moduli = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.IRRATIONAL,
        flags={"theta+omega1+one": "independent"},
    )
    return spec, moduli


def random_sf_a1_spec(rng, q=None):
    """Seeded saddle-focus spec with omega/2pi = p/q, q >= 9."""
    q = q if q is not None else int(rng.integers(9, 15))
    p = int(rng.integers(1, q))
    while math.gcd(p, q) != 1 or 2 * p >= q:
        p = int(rng.integers(1, q))
    eta1 = float(rng.uniform(-1.2, 1.2))
    eta2 = float(rng.uniform(-1.2, 1.2))
    while abs(math.sin(eta1 - eta2)) < 0.1:
        eta2 = float(rng.uniform(-1.2, 1.2))
    return sf_spec(
        theta=float(rng.uniform(0.6, 2.0)),
        w_hat=p / q,
        gamma=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.3, 3.0)),
        A=float(rng.uniform(0.5, 1.5)),
        B=float(rng.uniform(0.5, 1.5)),
        b=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5)),
        u=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5)),
        eta1=eta1, eta2=eta2,
    ), q, p


def random_df_a2_spec(rng, q1=None, q2=None):
    """Seeded double-focus spec with q1 >= 9, q2 >= 8 and healthy margins.

    delta is kept small: the admissibility margin sqrt(delta) must leave
    room among the q2 rotation values for the counting guarantee to bite.
    """
    q1 = q1 if q1 is not None else int(rng.integers(9, 14))
    q2 = q2 if q2 is not None else int(rng.integers(8, 12))
    p1 = int(rng.integers(1, q1))
    while math.gcd(p1, q1) != 1 or 2 * p1 >= q1:
        p1 = int(rng.integers(1, q1))
    p2 = int(rng.integers(1, q2))
    while math.gcd(p2, q2) != 1 or 2 * p2 >= q2:
        p2 = int(rng.integers(1, q2))
    eta1 = float(rng.uniform(-1.2, 1.2))
    eta2 = float(rng.uniform(-1.2, 1.2))
    while abs(math.sin(eta1 - eta2)) < 0.1:
        eta2 = float(rng.uniform(-1.2, 1.2))
    return df_spec(
        theta=float(rng.uniform(0.6, 2.0)),
        w1_hat=p1 / q1, w2_hat=p2 / q2,
        gamma=float(rng.uniform(1.3, 3.0)),
        A=float(rng.uniform(0.5, 1.5)),
        B=float(rng.uniform(0.5, 1.5)),
        b=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.4, 1.2)),
        u=(float(rng.uniform(0.5, 1.5)) * float(rng.choice([-1.0, 1.0])),
           float(rng.uniform(0.2, 1.0)) * float(rng.choice([-1.0, 1.0]))),
        eta1=eta1, eta2=eta2,
        eta3=float(rng.uniform(-0.6, 0.6)),
        delta=0.004,
    ), (q1, p1), (q2, p2)


def random_rational_sf_spec(rng, delta=5e-5):
    """Seeded saddle-focus spec with rational theta and omega/2pi.

    The exclusion distances measure the two-pair balance at the cube centre
    (K = C = 0) only, so a margin on them checked by the caller covers the
    centre alone.  The scan also moves K and C over [-1, 1], which shifts
    each term by a relative amount of order delta; delta is tiny so that
    this freedom mostly stays inside a 1e-3 margin, but not always.  Where
    the k-terms nearly cancel the shift is amplified: seeds 46, 226, 367,
    594, 703, 719, 968 and 1047 in 0..1499 clear a 1e-3 margin and still
    give a scan violation at ranges (40, 40).
    """
    q = int(rng.integers(3, 7))
    p = int(rng.integers(1, q))
    while math.gcd(p, q) != 1 or 2 * p >= q:
        p = int(rng.integers(1, q))
    qp = int(rng.integers(1, 4))
    pp = int(rng.integers(1, 4))
    g = math.gcd(pp, qp)
    pp, qp = pp // g, qp // g
    gamma = 1.5 + float(rng.uniform(0.0, 1.5))
    eta1 = float(rng.uniform(-1.2, 1.2))
    eta2 = float(rng.uniform(-1.2, 1.2))
    while abs(math.sin(eta1 - eta2)) < 0.1:
        eta2 = float(rng.uniform(-1.2, 1.2))
    spec = sf_spec(
        theta=pp / qp, w_hat=p / q, gamma=gamma,
        A=float(rng.uniform(0.5, 1.5)),
        B=float(rng.uniform(0.5, 1.5)),
        b=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5)),
        u=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5)),
        eta1=eta1, eta2=eta2, delta=delta,
    )
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(pp, qp), bf.RationalClass(p, q)
    )
    return spec, moduli


def rng_for(*entropy: int):
    return philox_rng(*entropy)
