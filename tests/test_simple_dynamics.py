import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import blenderforge as bf
from blenderforge import simple_dynamics as sd
from blenderforge.cycle_model import load_spec_document
from blenderforge.simple_dynamics import (
    SCALE_FLOOR,
    TruncationRanges,
    _balance_min,
    _df_pack,
    _DfTables,
    _family_distances,
    _prefilter_tuples,
    _prefilter_tuples_df,
    _sf_pack,
    _SfTables,
    exclusion_elements,
)
from conftest import df_spec, random_rational_sf_spec, rng_for, sf_spec

DATA = Path(__file__).parent / "data"


def rational_setup(delta=5e-5, **kw):
    spec = sf_spec(theta=0.5, w_hat=0.25, gamma=2.0, delta=delta, **kw)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, 2), bf.RationalClass(1, 4)
    )
    return spec, moduli


def test_exclusion_requires_rational_moduli(sf1_setup):
    spec, moduli = sf1_setup
    with pytest.raises(bf.NotRational):
        bf.exclusion_sets(spec, moduli)


def distance_to_family(target, gamma, lam, q_prime, ratio, trunc):
    """min over (s, ell, n) of |target - |gamma|^(s/q') * F(ell, n)|, the
    signed distance to the values `exclusion_elements` enumerates, one
    target at a time.

    A factor of the other sign than target, or zero, never comes closer
    than the point 0, so only the same-sign factors are measured.
    """
    factors = sd._sf_factors(gamma, lam, ratio, trunc)
    with np.errstate(divide="ignore"):
        log_f = np.where((factors > 0) == (target > 0), np.log(np.abs(factors)), np.nan)
    return float(_family_distances(target, gamma, q_prime, log_f, trunc.s_max)[0])


def test_distance_agrees_with_full_enumeration():
    tr = TruncationRanges(s_max=10, ell_max=7, n_max=7)
    rng = rng_for(3)
    for _ in range(30):
        gamma = float(rng.uniform(1.3, 3.0)) * float(rng.choice([-1.0, 1.0]))
        lam = float(rng.uniform(0.1, 0.9))
        ratio = float(rng.uniform(0.2, 3.0))
        target = float(rng.uniform(-3.0, 3.0))
        qp = int(rng.integers(1, 4))
        brute = min(abs(target - v) for *_, v in exclusion_elements(gamma, lam, qp, ratio, tr))
        fast = distance_to_family(target, gamma, lam, qp, ratio, tr)
        assert fast == pytest.approx(brute, abs=1e-13)


def test_enumeration_hits_each_triple_once():
    tr = TruncationRanges(s_max=3, ell_max=2, n_max=2)
    triples = [t[:3] for t in exclusion_elements(2.0, 0.5, 1, 1.3, tr)]
    assert len(triples) == len(set(triples))
    assert len(triples) == 7 * 3 * 3 + 1  # s in [-3..3], ell/n in {1, 2, inf}, plus 0


def test_membership_distance_zero_constructed():
    # place |a_r b| = |gamma|^(1/q') exactly for the residue r = 0
    q_prime = 2
    gamma = 2.0
    eta1 = 0.7
    A = gamma ** (1 / q_prime) / math.sin(eta1)
    spec = sf_spec(theta=1 / q_prime, w_hat=0.25, gamma=gamma, A=A, eta1=eta1,
                   eta2=1.4, delta=5e-5)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, q_prime), bf.RationalClass(1, 4)
    )
    report = bf.exclusion_sets(spec, moduli)
    assert report.ab_memberships["0"] == pytest.approx(0.0, abs=1e-12)
    assert bf.simple_verdict(report) == "inconclusive"


def test_closure_limit_points_included():
    # ell = inf element: target = |gamma|^(s/q') * ratio / (1 - gamma^-n)
    tr = TruncationRanges(s_max=20, ell_max=5, n_max=5)
    gamma, lam, qp, ratio = 2.0, 0.5, 1, 1.37
    target = gamma ** 3 * ratio / (1 - gamma ** (-2.0))
    assert distance_to_family(target, gamma, lam, qp, ratio, tr) < 1e-12


def test_unit_distances_match_one_target_at_a_time():
    # the a*b memberships: one batched call against one call per residue
    rng = rng_for(17)
    for gamma, q_prime, s_max in ((2.0, 1, 200), (-1.7, 3, 200), (1.3, 6, 4)):
        targets = np.concatenate((rng.uniform(-3.0, 3.0, 20), [0.0, 1e-300, 40.0, -gamma]))
        batched = sd._unit_distances(targets, gamma, q_prime, s_max)
        single = [distance_to_family(abs(t), gamma, 0.5, q_prime, 1.0,
                                     TruncationRanges(s_max, 0, 0)) for t in targets]
        assert batched.tolist() == single


def sf_products(spec, moduli):
    """P_r = a_r x+_r = B sin(r omega + eta2) / b per residue r."""
    f = moduli.rational("omega1")
    pack = _sf_pack(spec, f.denominator, f.numerator)
    return pack["a"] * pack["x_plus"]


def test_ratio_distance_keeps_residue_sign_seed_102():
    # P = (-0.100, 0.725, -0.625): P_0 / P_1 < 0, so the visits (7, 12) and
    # (3, 5) (k = 1 and 0 mod 3) add their k-terms instead of cancelling them
    spec, moduli = random_rational_sf_spec(rng_for(102))
    assert moduli.rational("omega1") == Fraction(1, 3)
    report = bf.exclusion_sets(spec, moduli)
    dist = report.ratio_memberships["1,0"]
    assert dist < 1e-3
    tables = _SfTables(spec, 3, 1, 12, 12)
    centre, *_ = tables.terms(np.array([[6, 2, 11, 4]]))  # (7,12) vs (3,5)
    residual = sd._residual(centre[0])                    # at K = C = 0
    target = abs(spec.u_scalar / sf_products(spec, moduli)[1])
    assert dist / target == pytest.approx(residual, rel=1e-2)
    assert bf.simple_verdict(report) == "inconclusive"


def test_sf_ratio_distances_match_signed_enumeration():
    tr = TruncationRanges(s_max=12, ell_max=6, n_max=6)
    negative_gamma = sf_spec(theta=0.5, w_hat=0.25, gamma=-2.2, delta=5e-5)
    cases = [
        random_rational_sf_spec(rng_for(102)),
        (negative_gamma, bf.moduli_from_declarations(
            negative_gamma, bf.RationalClass(1, 2), bf.RationalClass(1, 4))),
    ]
    kinds = set()
    for spec, moduli in cases:
        report = bf.exclusion_sets(spec, moduli, trunc=tr)
        ax = sf_products(spec, moduli)
        qp = moduli.rational("theta").denominator
        assert len(report.ratio_memberships) == len(ax) ** 2
        for key, dist in report.ratio_memberships.items():
            r1, r2 = map(int, key.split(","))
            rho = ax[r2] / ax[r1]
            if rho < 0:
                kinds.add("opposite")
            elif rho < spec.lam:
                kinds.add("below_lam")
            target = abs(spec.u_scalar / ax[r1])
            brute = min(abs(target - abs(v))
                        for *_, v in exclusion_elements(spec.gamma, spec.lam, qp, rho, tr))
            assert dist == pytest.approx(brute, rel=1e-9, abs=1e-12), key
        if spec.gamma < 0:
            kinds.add("negative_gamma")
    assert kinds == {"opposite", "below_lam", "negative_gamma"}


def test_eta_feasibility_flags():
    # eta2 placing a residue angle at a sine zero trips the flag
    spec, _ = rational_setup(eta2=math.pi / 2)  # r=1: angle pi/2 + eta2 = pi
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, 2), bf.RationalClass(1, 4)
    )
    report = bf.exclusion_sets(spec, moduli)
    assert not report.eta_ok["eta2"]


# ---------------------------------------------------------------------------
# brute scan
# ---------------------------------------------------------------------------

def constructed_on_spec(k1=6, m1=5, ell=4, n=3):
    gamma, q_prime, p_prime = 2.0, 2, 1
    lam = gamma ** (-p_prime / q_prime)
    q, p = 4, 1
    s = q_prime * m1 - p_prime * k1
    eta1, eta2 = 0.35, 1.05
    A, B, b = 1.1, 0.9, 0.8
    r = k1 % q
    omega = 2 * math.pi * p / q
    ax = B * math.sin(r * omega + eta2) / b
    u = ax * gamma ** (s / q_prime) * (1 - lam ** ell) / (1 - gamma ** (-n))
    spec = bf.CycleSpec("saddle_focus", lam, gamma, omega, A, B, b, u,
                        eta1, eta2, 4, 1, 2, delta=5e-5)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(p_prime, q_prime), bf.RationalClass(p, q)
    )
    return spec, moduli, (k1, m1), (k1 + ell, m1 + n)


def test_scan_empty_ranges_vacuous():
    spec, moduli = rational_setup()
    result = bf.brute_scan(spec, moduli, ranges=(0, 0))
    assert result.verdict == "no_extra_pairs"
    assert result.n_solutions == 0


def test_scan_finds_constructed_witness():
    spec, moduli, pair1, pair2 = constructed_on_spec()
    report = bf.exclusion_sets(spec, moduli)
    assert report.min_ratio_distance == pytest.approx(0.0, abs=1e-12)
    result = bf.brute_scan(spec, moduli, ranges=(40, 40), tol=1e-6)
    assert result.verdict == "violation"
    found = [s for s in result.solutions
             if {tuple(s["pair1"]), tuple(s["pair2"])} == {pair1, pair2}]
    assert found
    assert found[0]["residual"] <= 1e-6


def test_scan_generic_never_violates():
    # seeded specs filtered to clear the exclusion distances
    count = 0
    attempt = 0
    while count < 6 and attempt < 200:
        rng = rng_for(100 + attempt)
        attempt += 1
        spec, moduli = random_rational_sf_spec(rng)
        if not bf.validate_nondegeneracy(spec).overall:
            continue
        report = bf.exclusion_sets(spec, moduli)
        if not all(report.eta_ok.values()):
            continue
        if min(report.min_ratio_distance, report.min_ab_distance) <= 1e-3:
            continue
        result = bf.brute_scan(spec, moduli, ranges=(40, 40), tol=1e-6)
        assert result.verdict in ("no_extra_pairs", "constrained"), (
            attempt, result.verdict, result.solutions[:2]
        )
        count += 1
    assert count == 6


def test_scan_antisymmetric_minimum():
    spec, moduli = rational_setup()
    tables = _SfTables(spec, 4, 1, 12, 12)
    rows = np.array([[2, 5, 3, 7], [5, 2, 7, 3]])       # (3, 4) vs (6, 8), both ways
    residual, *_ = _balance_min(*tables.terms(rows), 1e-6)
    assert residual[0] == pytest.approx(residual[1], rel=1e-12)


def test_scan_finds_zero_between_grid_nodes():
    # u moved so that the constructed pair's balance needs K1 = 0.37 with the
    # other cube variables at 0.  At delta = 5e-5 the four slopes are
    # commensurate (lambda^ell = 1/4, gamma^-n = 1/8) and nodes of a grid of
    # 9 per axis come within 2e-8 of any zero; at delta = 1e-2 none gets
    # within the tolerance
    spec, moduli, pair1, pair2 = constructed_on_spec()
    spec = dataclasses.replace(spec, delta=1e-2)
    row = np.array([[pair1[0] - 1, pair2[0] - 1, pair1[1] - 1, pair2[1] - 1]])
    centre, slope, _ = _SfTables(spec, 4, 1, 14, 12).terms(row)
    gap = spec.gamma ** -pair1[1] - spec.gamma ** -pair2[1]     # the balance's du-slope is -gap
    spec = dataclasses.replace(
        spec, u_minus=spec.u_scalar + (centre.sum() + 0.37 * slope[0, 0]) / gap)
    centre, slope, axes = _SfTables(spec, 4, 1, 14, 12).terms(row)
    assert -centre.sum() / slope[0, 0] == pytest.approx(0.37, rel=1e-6)
    assert grid_residual_min(centre[0], slope[0], axes, 9)[0] > 1e-6
    result = bf.brute_scan(spec, moduli, ranges=(14, 12), tol=1e-6)
    assert result.verdict == "violation"
    found = [s for s in result.solutions
             if (tuple(s["pair1"]), tuple(s["pair2"])) == (pair1, pair2)]
    assert found and found[0]["residual"] <= ROUNDING
    assert found[0]["k_part_active"] and found[0]["m_part_active"]


def grid_residual_min(centre, slope, axes, grid):
    """Reference: the normalised residual of the terms t_j = centre_j +
    slope_j z_j minimised over the grid^4 nodes of the cube, z_j the cube
    variable axes[j]; returns the first minimum in (K1, C1, K2, C2) order and
    its node."""
    g = np.linspace(-1.0, 1.0, grid)
    t = [centre[j] + slope[j] * g.reshape([-1 if a == axes[j] else 1 for a in range(4)])
         for j in range(4)]
    res = np.abs((t[0] + t[1]) + (t[2] + t[3]))
    scale = np.maximum(np.maximum(np.abs(t[0]), np.abs(t[1])),
                       np.maximum(np.abs(t[2]), np.abs(t[3])))
    norm = res / np.maximum(scale, SCALE_FLOOR)
    idx = np.unravel_index(int(np.argmin(norm)), norm.shape)
    return float(norm[idx]), g[list(idx)]


def scan_rows(spec, moduli, ranges, tol):
    """The tables of `brute_scan` and its first INDEX_CAP prefilter survivors
    as (k1, k2, m1, m2) rows."""
    f1 = moduli.rational("omega1")
    if spec.is_saddle_focus:
        tables = _SfTables(spec, f1.denominator, f1.numerator, *ranges)
        tuples = _prefilter_tuples(*tables.intervals(), tol)
    else:
        f2 = moduli.rational("omega2")
        tables = _DfTables(spec, f1.denominator, f1.numerator,
                           f2.denominator, f2.numerator, *ranges)
        tuples = _prefilter_tuples_df(*tables.intervals(), tol)
    return tables, np.array(tuples[:sd.INDEX_CAP], dtype=np.intp).reshape(-1, 4)


#: rounding floor of the residual: a zero of the four-term balance, evaluated
#: in floats, is a few ulps of its largest term, where a grid node can hit an
#: exact 0.0 by cancellation
ROUNDING = 16 * np.finfo(float).eps


def load_doc(name):
    return load_spec_document(json.loads((DATA / name).read_text(encoding="utf-8")))


#: spec, ranges, tol and row stride of each oracle case; the tol = 1 scan
#: of the pinned document is sampled
ORACLE_CASES = {
    "constructed_sf": (lambda: constructed_on_spec()[:2], (40, 40), 1e-6, 1),
    "seed_102": (lambda: random_rational_sf_spec(rng_for(102)), (40, 40), 1e-6, 1),
    "df_rational_violation": (lambda: load_doc("df_rational_violation.json"), (40, 40), 1e-6, 1),
    "pinned_tol_1": (lambda: load_doc("sf_rational_pinned.json"), (60, 60), 1.0, 397),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_balance_min_against_grid_oracle(name):
    # on every prefilter survivor (sampled at tol = 1) the closed form is
    # never above a grid minimum, its witness lies in the cube and
    # re-evaluates to its residual, and it keeps every grid-9 solution
    make, ranges, tol, stride = ORACLE_CASES[name]
    tables, rows = scan_rows(*make(), ranges, tol)
    rows = rows[::stride]
    assert len(rows) > 10
    centre, slope, axes = tables.terms(rows)
    residual, point, *_ = _balance_min(centre, slope, axes, tol)
    assert np.all(np.abs(point) <= 1.0)
    t = centre + slope * point[:, list(axes)]
    again = np.abs((t[:, 0] + t[:, 1]) + (t[:, 2] + t[:, 3])) \
        / np.maximum(np.abs(t).max(axis=1), SCALE_FLOOR)
    assert np.array_equal(again, residual)
    for i in range(len(rows)):
        for grid in (2, 3, 9, 17):
            ref, _ = grid_residual_min(centre[i], slope[i], axes, grid)
            assert residual[i] <= ref * (1 + 1e-12) + ROUNDING, (rows[i], grid)
            if grid == 9 and ref <= tol:
                assert residual[i] <= tol, rows[i]


def test_df_terms_match_uv():
    # the balance terms are _uv's u and v, signed and paired with their cube
    # variables, at the centre and at every vertex
    spec = df_spec(theta=1.0, w1_hat=1 / 3, w2_hat=1 / 5, delta=5e-5)
    tables = _DfTables(spec, 3, 1, 5, 1, 12, 12)
    rows = np.array([[0, 5, 3, 7], [11, 2, 0, 9], [4, 4, 1, 2]])
    centre, slope, axes = tables.terms(rows)
    for point in [np.zeros(4), *sd._VERTICES]:
        K1, C1, K2, C2 = point
        u1, v1 = tables._uv(rows[:, 0], rows[:, 2], K1, C1)
        u2, v2 = tables._uv(rows[:, 1], rows[:, 3], K2, C2)
        t = centre + slope * point[list(axes)]
        np.testing.assert_allclose(t, np.stack((v1, u1, -v2, -u2), axis=1), rtol=1e-13)


def test_df_pole_residue_drops_out():
    # cos(w + eta3) + b*sin(w + eta3) vanishes at the m-residue r2 = 0 when
    # b = -1 and eta3 = pi/4: that residue has no wave coefficients
    spec = df_spec(theta=1.0, w1_hat=1 / 3, w2_hat=1 / 5, b=-1.0, eta3=math.pi / 4, delta=5e-5)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, 1), bf.RationalClass(1, 3), bf.RationalClass(1, 5)
    )
    report = bf.exclusion_sets(spec, moduli)
    assert report.eta_ok["eta3"] is False
    assert report.ratio_memberships and report.ab_memberships
    for key in [*report.ratio_memberships, *report.ab_memberships]:
        pairs = [side.split(",") for side in key.split("->")]
        assert all(r2 != "0" for _, r2 in pairs), key


def test_df_scan_runs_and_classifies():
    spec = df_spec(theta=1.0, w1_hat=1 / 3, w2_hat=1 / 5, delta=5e-5)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, 1), bf.RationalClass(1, 3), bf.RationalClass(1, 5)
    )
    report = bf.exclusion_sets(spec, moduli)
    assert report.ratio_memberships
    result = bf.brute_scan(spec, moduli, ranges=(25, 25), tol=1e-6)
    assert result.verdict in ("no_extra_pairs", "constrained", "violation")


def constructed_df_spec(pair1, pair2):
    """Double focus (theta = 1/2, omega1/2pi = 1/3, omega2/2pi = 2/5) with u
    scaled so that the visits pair1 and pair2 balance at K = C = 0."""
    base = df_spec(theta=0.5, w1_hat=1 / 3, w2_hat=2 / 5, delta=5e-5)
    pack = _df_pack(base, 3, 1, 5, 2)

    def terms(k, m):
        # P(k, m) at the cube centre is m_term + k_term, and k_term is linear in u
        ell = pack["ell"][m % 5]
        return (base.gamma ** m * pack["b"][k % 3, m % 5] / ell,
                pack["c"][m % 5] * base.lam ** -k / ell)

    (m1, k1), (m2, k2) = terms(*pair1), terms(*pair2)
    scale = (m2 - m1) / (k1 - k2)
    spec = df_spec(theta=0.5, w1_hat=1 / 3, w2_hat=2 / 5, delta=5e-5,
                   u=tuple(scale * u for u in base.u_pair))
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, 2), bf.RationalClass(1, 3), bf.RationalClass(2, 5)
    )
    return spec, moduli


@pytest.mark.parametrize("pair1, pair2", [((6, 2), (8, 5)), ((3, 1), (1, 4))],
                         ids=["later_m_larger_k", "later_m_smaller_k"])
def test_df_constructed_witness_on_family(pair1, pair2):
    spec, moduli = constructed_df_spec(pair1, pair2)
    key = f"{pair1[0] % 3},{pair1[1] % 5}->{pair2[0] % 3},{pair2[1] % 5}"
    report = bf.exclusion_sets(spec, moduli)
    assert report.ratio_memberships[key] == pytest.approx(0.0, abs=1e-12)
    result = bf.brute_scan(spec, moduli, ranges=(10, 10), tol=1e-6)
    assert result.verdict == "violation"
    assert any({tuple(s["pair1"]), tuple(s["pair2"])} == {pair1, pair2}
               for s in result.solutions)


def df_family_values(gamma, lam, q_prime, rho, sigma, tr):
    """|gamma|^(s/q') (rho - gamma^-n) / D with D = sigma - lam^ell or
    1 - sigma lam^ell, closure terms and the point 0 included."""
    lam_terms = [lam ** ell for ell in range(1, tr.ell_max + 1)] + [0.0]
    gam_terms = [gamma ** -n for n in range(1, tr.n_max + 1)] + [0.0]
    dens = [sigma - x for x in lam_terms] + [1.0 - sigma * x for x in lam_terms]
    yield 0.0
    for s in range(-tr.s_max, tr.s_max + 1):
        for den in dens:
            for g in gam_terms:
                if den != 0.0:
                    yield abs(gamma) ** (s / q_prime) * (rho - g) / den


def test_df_ratio_distances_match_enumeration():
    tr = TruncationRanges(s_max=6, ell_max=4, n_max=4)
    spec, moduli = constructed_df_spec((6, 2), (8, 5))
    report = bf.exclusion_sets(spec, moduli, trunc=tr)
    pack = _df_pack(spec, 3, 1, 5, 2)
    beta = pack["b"] / pack["ell"]
    kappa = pack["c"] / pack["ell"]
    assert len(report.ratio_memberships) == beta.size ** 2
    signs = set()
    for key, dist in report.ratio_memberships.items():
        (r1, r2), (r1p, r2p) = (map(int, side.split(",")) for side in key.split("->"))
        rho = beta[r1p, r2p] / beta[r1, r2]
        sigma = kappa[r2p] / kappa[r2]
        signs.add((rho > 0, sigma > 0))
        target = abs(pack["c"][r2] / pack["b"][r1, r2])
        brute = min(abs(target - abs(v))
                    for v in df_family_values(spec.gamma, spec.lam, 2, rho, sigma, tr))
        assert dist == pytest.approx(brute, rel=1e-9, abs=1e-12), key
    assert len(signs) == 4


# ---------------------------------------------------------------------------
# the separable double-focus family against `_family_distances`
# ---------------------------------------------------------------------------

def oracle_df_distances(targets, gamma, q_prime, num, den, den_row, s_max, block=32):
    """`_family_distances` over every factor log|F| = num[i, n] - den[den_row[i], j]."""
    out = []
    for r0 in range(0, len(targets), block):
        rows = np.arange(r0, min(r0 + block, len(targets)))
        with np.errstate(invalid="ignore"):
            log_f = num[rows][:, None, :] - den[den_row[rows]][:, :, None]
        out.append(_family_distances(np.asarray(targets)[rows], gamma, q_prime,
                                     log_f.reshape(len(rows), -1), s_max))
    return np.concatenate(out)


def assert_df_bitwise(targets, gamma, q_prime, num, den, den_row, s_max):
    """The kernel equals the oracle row for row under == on float64 (nan
    where both are nan); returns the kernel's distances."""
    fast = sd._df_family_distances(targets, gamma, q_prime, num, den, den_row, s_max)
    assert fast.dtype == np.float64
    np.testing.assert_array_equal(
        fast, oracle_df_distances(targets, gamma, q_prime, num, den, den_row, s_max))
    return fast


@pytest.fixture
def fallback_rows(monkeypatch):
    """Row counts of the kernel's `_family_distances` calls."""
    calls = []

    def counting(targets, gamma, q_prime, log_factors, s_max):
        calls.append(len(log_factors))
        return _family_distances(targets, gamma, q_prime, log_factors, s_max)

    monkeypatch.setattr(sd, "_family_distances", counting)
    return calls


def df_document_rows(doc):
    spec, moduli = load_spec_document(json.loads((DATA / doc).read_text(encoding="utf-8")))
    f1, f2 = moduli.rational("omega1"), moduli.rational("omega2")
    pack = _df_pack(spec, f1.denominator, f1.numerator, f2.denominator, f2.numerator)
    trunc = TruncationRanges()
    _, keys, targets, num, den, den_row = sd._df_rows(pack, spec.gamma, spec.lam, trunc, 1e-9)
    q_prime = moduli.rational("theta").denominator
    return (targets, spec.gamma, q_prime, num, den, den_row, trunc.s_max), len(keys[0])


@pytest.mark.parametrize("doc", ["df_rational_violation.json", "df_rational_no_pairs.json",
                                 "df_rational_saturated.json"])
def test_df_kernel_matches_oracle_on_every_key(doc, fallback_rows):
    rows, n_keys = df_document_rows(doc)
    assert_df_bitwise(*rows)
    assert len(rows[0]) == n_keys
    assert fallback_rows == []          # every key took the search


def test_saturated_document_has_dense_exact_ties():
    # sigma - lam^ell rounds to sigma and rho - gamma^-n to rho at large
    # ell and n: 35-71 distinct of 122 denominators per sigma row
    (_, _, _, num, den, _, _), n_keys = df_document_rows("df_rational_saturated.json")
    assert n_keys == 36 ** 2
    assert max(len(np.unique(row)) for row in den) <= 71
    assert max(len(np.unique(row)) for row in num) < num.shape[1]


def test_df_exclusion_memory_bounded():
    # blocks of DF_ROW_BLOCK keys and DF_CANDIDATE_BLOCK candidates; an
    # unblocked search of this document peaks near 23 MB
    spec, moduli = load_spec_document(
        json.loads((DATA / "df_rational_saturated.json").read_text(encoding="utf-8")))
    tracemalloc.start()
    try:
        report = bf.exclusion_sets(spec, moduli)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.ratio_memberships) == 36 ** 2
    assert peak <= 4 * 2**20


@st.composite
def tied_rows(draw):
    """Kernel inputs drawn from pools of at most three values, so that rows
    hold exact ties; small s_max makes some rows clamp."""
    n_rows, n_num = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    n_den_rows, n_den = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    value = st.floats(-6.0, 6.0, allow_nan=False)

    def table(shape):
        pool = draw(st.lists(value, min_size=1, max_size=3))
        size = shape[0] * shape[1]
        cells = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        return np.array(cells).reshape(shape)

    num, den = table((n_rows, n_num)), table((n_den_rows, n_den))
    den_row = np.array(draw(st.lists(st.integers(0, n_den_rows - 1),
                                     min_size=n_rows, max_size=n_rows)))
    targets = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n_rows, max_size=n_rows)))
    gamma = draw(st.sampled_from([1.3, 2.0, -2.9, 7.5]))
    return targets, gamma, draw(st.integers(1, 6)), num, den, den_row, draw(st.sampled_from([3, 200]))


@given(tied_rows())
def test_df_kernel_matches_oracle_with_exact_ties(rows):
    assert_df_bitwise(*rows)


def near_integer_rows(side, seed, n_rows=300):
    """Rows whose factor (0, 0) has computed z = k for an integer k (side
    0), or the float just below (-1) or just above (+1) k; |z| up to 140
    makes the rounding of z large.  The other factors are random, and every
    z stays inside s_max."""
    rng = rng_for(seed)
    gamma, q_prime, s_max = 2.0, 3, 200
    h = math.log(gamma) / q_prime
    num = rng.uniform(-3.0, 3.0, (n_rows, 6))
    den = rng.uniform(-3.0, 3.0, (3, 7))
    den_row = rng.integers(0, 3, n_rows)
    targets = np.empty(n_rows)
    steps = 1.0 + np.arange(-4000, 4001) * 2.0 ** -52
    for i in range(n_rows):
        d = num[i, 0] - den[den_row[i], 0]
        hits = []
        while not len(hits):
            # nudge the target until the computed z is exactly the float
            # wanted; fl(L - d) / h skips some floats, so k may be redrawn
            k = float(rng.integers(-140, 141))
            want = np.nextafter(k, k + side) if side else k
            t = np.exp(k * h + d) * steps
            hits = np.flatnonzero((np.log(t) - d) / h == want)
        targets[i] = t[hits[0]]
    return targets, gamma, q_prime, num, den, den_row, s_max


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_df_kernel_matches_oracle_one_ulp_from_an_integer(side, fallback_rows):
    rows = near_integer_rows(side, seed=40 + side)
    dists = assert_df_bitwise(*rows)
    if side == 0:
        assert (dists == 0.0).all()
    # the window's wrap side holds these factors, so no row falls back
    assert fallback_rows == []


def test_df_kernel_falls_back_on_clamped_and_non_finite_rows(fallback_rows):
    rng = rng_for(23)
    gamma, q_prime = 1.7, 2
    lam_pows, gam_pows = sd._powers(gamma, 0.4, TruncationRanges(s_max=4, ell_max=6, n_max=6))
    rho = np.array([gam_pows[2], 0.8, -0.3, 1.9, 0.6])    # rho = gamma^-3 exactly: -inf
    sigma = np.array([[0.7], [np.inf], [np.nan], [lam_pows[1]]])
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.log(np.abs(rho[:, None] - gam_pows))
        den = np.log(np.abs(np.concatenate((sigma - lam_pows, 1.0 - sigma * lam_pows), axis=1)))
    den_row = np.array([0, 1, 2, 3, 0])
    targets = np.array([0.9, 1.1, 0.5, 2.0, 0.0])
    assert np.isneginf(num[0]).any() and not np.isfinite(den[1:]).all(axis=1).any()
    assert_df_bitwise(targets, gamma, q_prime, num, den, den_row, 4)
    assert sum(fallback_rows) == len(targets)
    # z spreads over about [-20, 20], so s_max = 10 clamps some rows only
    num, den = rng.uniform(-2.0, 2.0, (40, 9)), rng.uniform(-2.0, 2.0, (2, 5))
    den_row, targets = rng.integers(0, 2, 40), rng.uniform(0.2, 5.0, 40)
    fallback_rows.clear()
    assert_df_bitwise(targets, gamma, q_prime, num, den, den_row, 10)
    assert 0 < sum(fallback_rows) < 40


def test_simple_verdict_conjunction():
    spec, moduli = rational_setup()
    report = bf.exclusion_sets(spec, moduli)
    scan = bf.brute_scan(spec, moduli, ranges=(30, 30), tol=1e-6)
    full = bf.ExclusionReport(
        eta_ok=report.eta_ok,
        ratio_memberships=report.ratio_memberships,
        ab_memberships=report.ab_memberships,
        trunc=report.trunc,
        scan=scan,
    )
    verdict = bf.simple_verdict(full)
    if all(report.eta_ok.values()) and report.min_ratio_distance > 1e-3 \
            and report.min_ab_distance > 1e-3 and scan.verdict != "violation":
        assert verdict == "simple_hyperbolic_expected"
    else:
        assert verdict == "inconclusive"
    # forcing a zero distance forces inconclusive
    doctored = bf.ExclusionReport(
        eta_ok=report.eta_ok,
        ratio_memberships={"0,0": 0.0},
        ab_memberships=report.ab_memberships,
        trunc=report.trunc,
        scan=scan,
    )
    assert bf.simple_verdict(doctored) == "inconclusive"


# ---------------------------------------------------------------------------
# scan prefilters against the loop versions they replace
# ---------------------------------------------------------------------------

def loop_prefilter_sf(x_iv, y_iv, tol):
    """Reference: the O(n^4) loop over (k1, k2) with a dense (m1, m2) gap
    tensor per pair."""
    (x_lo, x_hi, xs), (y_lo, y_hi, ys) = x_iv, y_iv
    nk = len(x_lo)
    out = []
    for k1 in range(nk):
        dx_lo = x_lo[k1] - x_hi
        dx_hi = x_hi[k1] - x_lo
        sx = np.maximum(xs[k1], xs)
        dy_lo = y_lo[:, None] - y_hi[None, :]
        dy_hi = y_hi[:, None] - y_lo[None, :]
        sy = np.maximum(ys[:, None], ys[None, :])
        for k2 in range(nk):
            if k1 == k2:
                continue
            gap = np.maximum(0.0, np.maximum(dx_lo[k2] - dy_hi, dy_lo - dx_hi[k2]))
            scale = np.maximum(sx[k2], sy)
            for m1, m2 in np.argwhere(gap <= tol * np.maximum(scale, SCALE_FLOOR)):
                if m1 == m2:
                    continue
                out.append((k1, k2, int(m1), int(m2)))
                if len(out) > sd.INDEX_CAP:
                    return out
    return out


def loop_prefilter_df(p_lo, p_hi, scale, tol):
    """Reference: the loop over (k1, m1) against the whole (k2, m2) table."""
    nk, nm = p_lo.shape
    out = []
    for k1 in range(nk):
        for m1 in range(nm):
            lo1, hi1, s1 = p_lo[k1, m1], p_hi[k1, m1], scale[k1, m1]
            if not math.isfinite(lo1):
                continue
            gap = np.maximum(0.0, np.maximum(lo1 - p_hi, p_lo - hi1))
            sc = np.maximum(s1, scale)
            mask = gap <= tol * np.maximum(sc, SCALE_FLOOR)
            mask[k1, :] = False
            mask[:, m1] = False
            for k2, m2 in np.argwhere(mask):
                if (k2, m2) > (k1, m1):
                    out.append((k1, int(k2), m1, int(m2)))
                    if len(out) > sd.INDEX_CAP:
                        return out
    return out


#: gap == tol * scale exactly is common on the integer grid
TOLS = st.sampled_from([0.0, 1e-6, 0.25, 0.5, 1.0])
#: 1 keeps endpoints exact; 0.1 and 1e-3 make them round
UNITS = st.sampled_from([1.0, 0.1, 1e-3])


def grid_ints(n, lo, hi):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=float))


@st.composite
def term_intervals(draw):
    """Term intervals as `_SfTables.intervals` gives them: repeated
    endpoints, zero widths, and optionally the infinite-index slot last
    ([0, 0], scale 0)."""
    n = draw(st.integers(1, 6))
    lo = draw(grid_ints(n, -4, 4))
    hi = lo + draw(grid_ints(n, 0, 3))
    scale = np.maximum(np.abs(lo), np.abs(hi)) + draw(grid_ints(n, 0, 2))
    unit = draw(UNITS)
    lo, hi, scale = lo * unit, hi * unit, scale * unit
    if draw(st.booleans()):
        lo, hi, scale = (np.append(v, 0.0) for v in (lo, hi, scale))
    return lo, hi, scale


@st.composite
def p_intervals(draw):
    """P-interval tables as `_DfTables.intervals` gives them, some entries
    marked bad (lo = +inf, hi = -inf, scale SCALE_FLOOR)."""
    nk, nm = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lo = draw(grid_ints(nk * nm, -4, 4))
    hi = lo + draw(grid_ints(nk * nm, 0, 3))
    scale = np.maximum(np.abs(lo), np.abs(hi)) + draw(grid_ints(nk * nm, 0, 2))
    unit = draw(UNITS)
    lo, hi, scale = lo * unit, hi * unit, scale * unit
    bad = np.array(draw(st.lists(st.booleans(), min_size=nk * nm, max_size=nk * nm)))
    lo[bad], hi[bad], scale[bad] = np.inf, -np.inf, SCALE_FLOOR
    return lo.reshape(nk, nm), hi.reshape(nk, nm), scale.reshape(nk, nm)


@given(term_intervals(), term_intervals(), st.integers(1, 4))
def test_overlap_join_finds_each_overlapping_pair_once(a_iv, b_iv, block):
    # closed intervals: touching ends and zero widths overlap
    (a_lo, a_hi, _), (b_lo, b_hi, _) = a_iv, b_iv
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sd, "JOIN_BLOCK", block)
        blocks = [(i.tolist(), j.tolist()) for i, j in sd._overlap_blocks(a_lo, a_hi, b_lo, b_hi)]
    pairs = [pair for i, j in blocks for pair in zip(i, j)]
    assert sorted(pairs) == [(i, j) for i in range(len(a_lo)) for j in range(len(b_lo))
                             if max(a_lo[i], b_lo[j]) <= min(a_hi[i], b_hi[j])]
    # each block covers a run of i after the previous block's
    runs = [sorted(set(i)) for i, _ in blocks if i]
    assert all(prev[-1] < run[0] for prev, run in zip(runs, runs[1:]))


@given(term_intervals(), term_intervals(), TOLS)
def test_sf_prefilter_matches_loop(x_iv, y_iv, tol):
    assert _prefilter_tuples(x_iv, y_iv, tol) == loop_prefilter_sf(x_iv, y_iv, tol)


@given(p_intervals(), TOLS)
def test_df_prefilter_matches_loop(p_iv, tol):
    assert _prefilter_tuples_df(*p_iv, tol) == loop_prefilter_df(*p_iv, tol)


@given(term_intervals(), term_intervals(), p_intervals(), TOLS, st.integers(1, 4))
def test_prefilters_match_loop_truncated_in_small_blocks(x_iv, y_iv, p_iv, tol, block):
    # a small cap truncates the output to its first INDEX_CAP + 1 tuples,
    # and small join blocks make that prefix span several blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sd, "INDEX_CAP", 3)
        mp.setattr(sd, "JOIN_BLOCK", block)
        for new, ref in ((_prefilter_tuples(x_iv, y_iv, tol), loop_prefilter_sf(x_iv, y_iv, tol)),
                         (_prefilter_tuples_df(*p_iv, tol), loop_prefilter_df(*p_iv, tol))):
            assert new == ref
            assert len(new) <= 4


@pytest.mark.parametrize("tol, passes", [(0.5, True), (0.49, False)])
def test_prefilters_gap_equal_to_tolerance_passes(tol, passes):
    # Dx(0, 1) = -1 and Dy(0, 1) = -2 at scale 2: gap 1 against tol * 2
    x_iv = (np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    y_iv = (np.array([0.0, 2.0]), np.array([0.0, 2.0]), np.array([0.0, 2.0]))
    sf = _prefilter_tuples(x_iv, y_iv, tol)
    assert sf == loop_prefilter_sf(x_iv, y_iv, tol)
    assert ((0, 1, 0, 1) in sf) == passes
    # P(0, 0) = 0 and P(1, 1) = 1 at scale 2
    p_iv = (np.array([[0.0, 9.0], [9.0, 1.0]]), np.array([[0.0, 9.0], [9.0, 1.0]]),
            np.array([[1.0, 9.0], [9.0, 2.0]]))
    df = _prefilter_tuples_df(*p_iv, tol)
    assert df == loop_prefilter_df(*p_iv, tol)
    assert ((0, 1, 0, 1) in df) == passes


def test_prefilters_keep_pairs_passed_by_rounding():
    # d + 0.5 rounds to 0.5 = tol * scale, so the gap test passes a pair
    # whose exact gap exceeds the tolerance by d
    d, tol = 3.5e-17, 0.5
    x = np.array([d, 0.0])
    y = np.array([1.0, 0.5])
    x_iv, y_iv = (x, x, x), (y, y, y)
    assert (0, 1, 1, 0) in loop_prefilter_sf(x_iv, y_iv, tol)
    assert _prefilter_tuples(x_iv, y_iv, tol) == loop_prefilter_sf(x_iv, y_iv, tol)
    p = np.array([[d, np.inf], [np.inf, -0.5]])
    p_iv = (p, np.where(np.isinf(p), -np.inf, p), np.where(np.isinf(p), SCALE_FLOOR, np.abs(p)))
    p_iv[2][1, 1] = 1.0
    assert loop_prefilter_df(*p_iv, tol) == [(0, 1, 0, 1)]
    assert _prefilter_tuples_df(*p_iv, tol) == [(0, 1, 0, 1)]


def test_prefilter_truncates_at_cap_plus_one():
    x_iv = (np.zeros(4), np.ones(4), np.ones(4))     # every tuple overlaps
    p_iv = (np.zeros((4, 4)), np.ones((4, 4)), np.ones((4, 4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sd, "INDEX_CAP", 5)
        mp.setattr(sd, "JOIN_BLOCK", 2)
        assert _prefilter_tuples(x_iv, x_iv, 0.0) == loop_prefilter_sf(x_iv, x_iv, 0.0)
        assert len(_prefilter_tuples(x_iv, x_iv, 0.0)) == 6
        assert _prefilter_tuples_df(*p_iv, 0.0) == loop_prefilter_df(*p_iv, 0.0)
        assert len(_prefilter_tuples_df(*p_iv, 0.0)) == 6


def test_prefilter_scales():
    # range 400 (SF) and 150 (DF): an O(n^4) loop here takes minutes
    spec, moduli = random_rational_sf_spec(rng_for(0))
    f = moduli.rational("omega1")
    tables = _SfTables(spec, f.denominator, f.numerator, 400, 400)
    sf = _prefilter_tuples(*tables.intervals(), 1e-6)
    n = 401
    assert 0 < len(sf) <= (n * (n - 1)) ** 2
    assert len(set(sf)) == len(sf)
    spec = df_spec(theta=1.0, w1_hat=1 / 3, w2_hat=1 / 5, delta=5e-5)
    df = _prefilter_tuples_df(*_DfTables(spec, 3, 1, 5, 1, 150, 150).intervals(), 1e-6)
    n = 150 * 150
    assert 0 < len(df) <= n * (n - 1) // 2
    assert len(set(df)) == len(df)
    assert all(k1 != k2 and m1 != m2 for k1, k2, m1, m2 in df)
