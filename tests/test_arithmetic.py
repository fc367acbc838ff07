import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import blenderforge as bf
from blenderforge import arithmetic
from blenderforge.arithmetic import alpha_df, alpha_sf
from builders import W1_IRR, df_spec, rng_for, sf_spec

TWO_PI = 2.0 * math.pi
DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# condition scans
# ---------------------------------------------------------------------------

def brute_a1(spec, q, p):
    """Independent residue enumeration (plain loops, no shared helpers)."""
    out = []
    for r in range(q):
        ang = 2 * math.pi * p * r / q
        s1 = math.sin(ang + spec.eta1)
        s2 = math.sin(ang + spec.eta2)
        bu = spec.b_coef * spec.u_scalar
        if bu * s2 <= 0 or abs(s1) <= 1e-12:
            continue
        alpha = bu * spec.A_coef * s1 / (spec.B_coef * s2)
        if abs(abs(alpha) - 1) <= 1e-9:
            continue
        out.append(r)
    return sorted(out)


def test_a1_nine_residues_example():
    spec = sf_spec(w_hat=1 / 9, A=1.0, B=1.0, b=1.0, u=1.0, eta1=0.0, eta2=math.pi / 4)
    wits = bf.check_A1(spec, 9, 1)
    assert wits
    assert sorted(w.r for w in wits) == brute_a1(spec, 9, 1)


def test_a1_rejects_degenerate_denominators():
    spec = sf_spec()
    with pytest.raises(bf.DomainError):
        bf.check_A1(spec, 1, 1)
    with pytest.raises(bf.DomainError):
        bf.check_A1(spec, 2, 1)


def test_a1_invariant_under_p_shift():
    spec = sf_spec(w_hat=2 / 9)
    a = [(w.r, w.alpha) for w in bf.check_A1(spec, 9, 2)]
    b = [(w.r, w.alpha) for w in bf.check_A1(spec, 9, 11)]
    assert [r for r, _ in a] == [r for r, _ in b]
    assert all(x == pytest.approx(y, rel=1e-12) for (_, x), (_, y) in zip(a, b))


def test_a1_sign_flip_selects_other_half_circle():
    spec_pos = sf_spec(w_hat=1 / 9, b=1.0, u=1.0)
    spec_neg = sf_spec(w_hat=1 / 9, b=-1.0, u=1.0)
    pos = {w.r for w in bf.check_A1(spec_pos, 9, 1)}
    neg = {w.r for w in bf.check_A1(spec_neg, 9, 1)}
    omega = spec_pos.omega1
    for r in pos:
        assert math.sin(r * omega + spec_pos.eta2) > 0
    for r in neg:
        assert math.sin(r * omega + spec_neg.eta2) < 0


def test_a1_not_applicable_for_double_focus():
    with pytest.raises(bf.NotApplicable):
        bf.check_A1(df_spec(), 9, 1)


def brute_a2(spec, q1, p1, q2, p2):
    out = []
    u1, u2 = spec.u_pair
    cdelta = math.sqrt(spec.delta)
    for r2 in range(q2):
        w_ang = 2 * math.pi * p2 * r2 / q2
        den = math.cos(w_ang + spec.eta3) + spec.b_coef * math.sin(w_ang + spec.eta3)
        quant = min(abs(math.cos(w_ang)), abs(math.cos(w_ang + spec.eta3)), abs(den))
        if quant <= cdelta:
            continue
        xi_num = math.cos(w_ang + spec.eta3) * u1 + math.sin(w_ang + spec.eta3) * u2
        if abs(xi_num) <= 1e-12:
            continue
        for r1 in range(q1):
            s_ang = 2 * math.pi * p1 * r1 / q1
            s1 = math.sin(s_ang + spec.eta1)
            s2 = math.sin(s_ang + spec.eta2)
            if xi_num * s2 <= 0 or abs(s1) <= 1e-12:
                continue
            alpha = spec.A_coef * xi_num * s1 / (den * spec.B_coef * s2)
            if not math.isfinite(alpha) or abs(abs(alpha) - 1) <= 1e-9:
                continue
            out.append((r1, r2))
    return sorted(out)


def test_a2_enumeration_matches_oracle():
    spec = df_spec(w1_hat=1 / 9, w2_hat=1 / 8, delta=0.004)
    wits = bf.check_A2(spec, 9, 1, 8, 1)
    assert wits
    assert sorted((w.r, w.r2) for w in wits) == brute_a2(spec, 9, 1, 8, 1)


def test_a2_not_applicable_for_saddle_focus():
    with pytest.raises(bf.NotApplicable):
        bf.check_A2(sf_spec(), 9, 1, 8, 1)


def test_a2_degenerate_rotation_pair_excluded():
    # u- orthogonal to the rotation direction at some r2 kills the numerator
    spec = df_spec(w1_hat=1 / 9, w2_hat=1 / 4)
    with pytest.raises(bf.DomainError):
        bf.check_A2(spec, 9, 1, 4, 2)  # non-coprime


# ---------------------------------------------------------------------------
# torus coefficient flow
# ---------------------------------------------------------------------------

def test_eval_gh_sine_zero():
    spec = df_spec()
    s = (math.pi - spec.eta1) / TWO_PI  # 2*pi*s + eta1 = pi
    g, _ = bf.eval_gh(spec, 0.0, s, 0.1)
    assert g == pytest.approx(0.0, abs=1e-12)


def test_eval_gh_exponent_law():
    spec = df_spec()
    g0, h0 = bf.eval_gh(spec, 0.0, 0.07, 0.13)
    g1, h1 = bf.eval_gh(spec, 1.0, 0.07, 0.13)
    _, _, xi = __import__("blenderforge.return_map", fromlist=["df_wave_coeffs"]).df_wave_coeffs(spec, TWO_PI * 0.13)
    assert g1 == pytest.approx(2.0 * g0, rel=1e-12)
    assert h1 + xi == pytest.approx(2.0 * (h0 + xi), rel=1e-12)


def test_eval_gh_against_high_precision():
    import mpmath as mp
    mp.mp.dps = 40
    spec = df_spec()
    rng = rng_for(17)
    for _ in range(20):
        t = float(rng.uniform(-3, 3))
        s = float(rng.uniform(0, 1))
        w = float(rng.uniform(0, 1))
        ang = mp.mpf(TWO_PI) * mp.mpf(w)
        den = mp.cos(ang + spec.eta3) + mp.mpf(spec.b_coef) * mp.sin(ang + spec.eta3)
        if abs(den) < 1e-6:
            continue
        wa = mp.mpf(spec.A_coef) / den
        wb = mp.mpf(spec.B_coef) / den
        xi = (mp.cos(ang + spec.eta3) * spec.u_pair[0]
              + mp.sin(ang + spec.eta3) * spec.u_pair[1]) / den
        gt = mp.e ** (mp.mpf(t) * mp.log(spec.gamma))
        g_hp = gt * wa * mp.sin(mp.mpf(TWO_PI) * s + spec.eta1)
        h_hp = gt * wb * mp.sin(mp.mpf(TWO_PI) * s + spec.eta2) - xi
        g, h = bf.eval_gh(spec, t, s, w)
        assert abs(g - float(g_hp)) < 1e-12 * max(1.0, abs(float(g_hp)))
        assert abs(h - float(h_hp)) < 1e-12 * max(1.0, abs(float(h_hp)))


def test_eval_gh_pole():
    spec = df_spec(b=1.0)
    # cos(x) + sin(x) = 0 at x = 3*pi/4; x = 2*pi*w + eta3
    w = (3 * math.pi / 4 - spec.eta3) / TWO_PI
    with pytest.raises(bf.PoleError):
        bf.eval_gh(spec, 0.0, 0.1, w)


def test_eval_gh_not_applicable():
    with pytest.raises(bf.NotApplicable):
        bf.eval_gh(sf_spec(), 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# torus targets
# ---------------------------------------------------------------------------

def test_horizontal_line_with_vanishing_offset_inadmissible():
    spec = df_spec(u=(1.0, 0.0), eta3=0.0, w2_hat=1 / 4)
    # xi numerator = cos(2 pi w) * u1; vanishes at w = 1/4
    target = bf.target_admissible(spec, bf.TorusTarget.horizontal_line(0.1, 0.25))
    assert not target.admissible


def test_tilted_line_degenerate_direction():
    spec = df_spec()
    target = bf.target_admissible(spec, bf.TorusTarget.tilted_line(a1=0.0, b=0.0, a2=1.0))
    assert not target.admissible
    assert target.margins["direction_nonzero"] == 0.0


def test_seeded_admissible_line_has_positive_margins(df1_setup):
    spec, _ = df1_setup
    wits = bf.check_A2(spec, 3, 1, 5, 1)
    w = wits[0]
    target = bf.target_admissible(
        spec,
        bf.TorusTarget.horizontal_line(w.r * (1 / 3), (w.r2 or 0) * (1 / 5)),
    )
    assert target.admissible
    assert all(v > 0 for v in target.margins.values())


def test_target_constructor_validation():
    with pytest.raises(bf.DomainError):
        bf.TorusTarget.tilted_line(a1=1.0, b=0.0)  # needs a2 or w_star
    with pytest.raises(bf.DomainError):
        bf.TorusTarget.plane()


# ---------------------------------------------------------------------------
# pair searches
# ---------------------------------------------------------------------------

def brute_sf1_pairs(spec, theta, q, p, r, eps, k_max, m_max):
    """Exhaustive scan of the residue class with log-stable evaluation."""
    out = []
    log_g = math.log(abs(spec.gamma))
    bu = spec.b_coef * spec.u_scalar
    s2 = math.sin(r * spec.omega1 + spec.eta2)
    step = 2 if spec.gamma < 0 else 1
    for k in range(r if r >= 1 else q, k_max + 1, q):
        t_star = math.log(bu / (spec.B_coef * s2)) / log_g
        m = step * round((t_star + theta * k) / step)
        if not (1 <= m <= m_max):
            continue
        b_val = math.exp((m - theta * k) * log_g) * spec.B_coef * s2 - bu
        if abs(b_val) <= eps:
            rc = bf.coeffs(spec, k, m)
            if rc.admissible and abs(rc.B_km) <= eps:
                out.append((k, m))
    return out


def test_sf1_search_matches_brute_force(sf1_setup):
    spec, moduli = sf1_setup
    window = bf.SearchWindow(k_max=10_000, m_max=20_000)
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3, window=window)
    assert seq.pairs
    r = seq.residue["r"]
    brute = brute_sf1_pairs(spec, moduli.theta, 4, 1, r, 1e-3, 10_000, 20_000)
    assert list(seq.pairs) == sorted(brute)
    assert all(abs(b) <= 1e-3 for b in seq.B_values)


def test_round_trip_reproduces_values(sf1_setup):
    spec, moduli = sf1_setup
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3)
    for (k, m), a_val, b_val in zip(seq.pairs, seq.A_values, seq.B_values):
        rc = bf.coeffs(spec, k, m)
        assert rc.A_km == a_val  # bitwise
        assert rc.B_km == b_val


def test_sf1_band_property(sf1_setup):
    spec, moduli = sf1_setup
    eps = 1e-3
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=eps)
    bu = abs(spec.b_coef * spec.u_scalar)
    band = 10 * eps / bu
    assert all(abs(a / seq.alpha_ref - 1) <= band for a in seq.A_values)


def test_search_eps_infinite_returns_first_admissible(sf1_setup):
    spec, moduli = sf1_setup
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=math.inf)
    assert len(seq.pairs) == 1
    k, m = seq.pairs[0]
    assert bf.coeffs(spec, k, m).admissible


def test_window_exhausted_reports_best(sf1_setup):
    spec, moduli = sf1_setup
    with pytest.raises(bf.WindowExhausted) as err:
        bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-9,
                        window=bf.SearchWindow(k_max=50, m_max=80))
    assert err.value.found == 0
    assert err.value.best_distance is not None


def test_df1_exact_residues_and_reduction_band(df1_setup):
    spec, moduli = df1_setup
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.DF_1, eps=1e-3, residue_rank=2)
    r1, r2 = seq.residue["r1"], seq.residue["r2"]
    for (k, m), (t, s, w) in zip(seq.pairs, seq.target_values):
        assert k % 3 == r1 and m % 5 == r2
        # torus coordinates land exactly on the line
        assert Fraction(k, 1) * Fraction(1, 3) % 1 == Fraction(r1, 3) % 1
        assert Fraction(m, 1) * Fraction(1, 5) % 1 == Fraction(r2, 5) % 1
    # the |g| values stay in a closed band on the side the band limit picks
    gs = [abs(bf.eval_gh(spec, *tv)[0]) for tv in seq.target_values]
    if abs(seq.alpha_ref) > 1:
        assert min(gs) > 1.0
    else:
        assert max(gs) < 1.0


def test_sf_case_tag_mismatch_rejected(df1_setup):
    spec, moduli = df1_setup
    with pytest.raises(bf.NotApplicable):
        bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3)


@pytest.mark.parametrize("doc", ["sf_2_0", "df_2_2_3", "df_3_3_1_0", "df_3_3_2_0"])
def test_kind_request_rejected_for_single_sided_case(doc):
    # the line cases yield only a cu-blender
    spec, moduli = bf.load_spec_document(str(DATA / f"{doc}.json"))
    case = bf.classify_case(moduli, spec)
    with pytest.raises(bf.NotApplicable, match="only a cu band"):
        bf.search_pairs(spec, moduli, case, eps=1e-2, kind="cs")


def mirrored_df_2_x(dependent=False):
    """Double focus with omega1/2pi = 1/3 rational and omega2/2pi irrational,
    {theta, omega2, 1} independent (DF-2.1 for the inverse cycle) or
    dependent (DF-2.2)."""
    theta = 0.5 * W1_IRR + 1 / 3 if dependent else math.sqrt(2)
    spec = df_spec(theta=theta, w2_hat=W1_IRR)
    moduli = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.RationalClass(1, 3), bf.IRRATIONAL,
        relations=[{"theta": 6, "omega2": -3, "one": -2}] if dependent else (),
        flags=None if dependent else {"omega2+one+theta": "independent"},
    )
    return spec, moduli


@pytest.mark.parametrize("tag", ["DF-2.1", "DF-2.2"])
def test_mirrored_double_focus_search_not_applicable(tag):
    spec, moduli = mirrored_df_2_x(dependent=tag == "DF-2.2")
    assert bf.classify_case(moduli, spec) is bf.CaseTag(tag)
    with pytest.raises(bf.NotApplicable, match="inverse-cycle return maps"):
        bf.search_pairs(spec, moduli, bf.CaseTag(tag), eps=1e-3)


def sf_1_0():
    return bf.load_spec_document(str(DATA / "sf_1_0.json"))


#: searches every check rejects, with the error it raises: a case tag of the
#: other cycle type, an unknown kind, a cs request in a cu-only case, a tag
#: with no pair search, and the mirrored DF-2.1 case
REJECTED_SEARCHES = {
    "df_tag_on_sf_spec": (sf_1_0, bf.CaseTag.DF_1, None, bf.NotApplicable),
    "bogus_kind": (sf_1_0, bf.CaseTag.SF_1, "bogus", bf.DomainError),
    "cs_in_cu_only_case": (sf_1_0, bf.CaseTag.SF_2, "cs", bf.NotApplicable),
    "rational_all_tag": (sf_1_0, bf.CaseTag.SF_RATIONAL_ALL, None, bf.NotApplicable),
    "mirrored_df_2_1": (mirrored_df_2_x, bf.CaseTag.DF_2_1, None, bf.NotApplicable),
}


@pytest.mark.parametrize("name", sorted(REJECTED_SEARCHES))
def test_search_validates_before_unconstrained_shortcut(name):
    load, case, kind, error = REJECTED_SEARCHES[name]
    spec, moduli = load()
    for eps in (1e-3, math.inf):
        with pytest.raises(error):
            bf.search_pairs(spec, moduli, case, eps=eps, kind=kind)


def test_sf2_pairs_expand(sf3_setup):
    w1 = W1_IRR
    theta = 0.5 * w1 + 1 / 3
    spec = sf_spec(theta=theta, w_hat=w1)
    moduli = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.IRRATIONAL,
        relations=[{"theta": 6, "omega1": -3, "one": -2}],
    )
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_2, eps=1e-2, min_pairs=5)
    assert len(seq.pairs) >= 5
    assert all(abs(a) > 1.0 for a in seq.A_values)
    assert all(abs(b) <= 1e-2 for b in seq.B_values)


def test_root_scan_skips_poles():
    # tan(pi x) changes sign across its pole at 1/2 and at its root 1
    roots = arithmetic._root_scan(lambda x: math.tan(math.pi * x), 0.2, 1.3, 64)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-12


def test_line_profile_pole_is_not_a_target():
    # the DF-3.3.1 line crosses poles of the wave denominator; a pole taken
    # for a root made alpha_df raise PoleError out of the search
    spec, moduli = bf.load_spec_document(str(DATA / "df_3_3_1_0.json"))
    with pytest.raises(bf.WindowExhausted):
        bf.search_pairs(spec, moduli, bf.CaseTag.DF_3_3_1)


def test_sf3_band_sides(sf3_setup):
    spec, moduli = sf3_setup
    cs = bf.search_pairs(spec, moduli, bf.CaseTag.SF_3, eps=1e-3, kind="cs")
    cu = bf.search_pairs(spec, moduli, bf.CaseTag.SF_3, eps=1e-3, kind="cu")
    assert 0 < max(abs(a) for a in cs.A_values) < 1
    assert min(abs(a) for a in cu.A_values) > 1


def test_alpha_definitions_agree_with_limits(df1_setup):
    # the band limit equals the coefficient-flow value at a zero of h
    spec, _ = df1_setup
    s_star, w_star = 0.07, 0.13
    a = alpha_df(spec, TWO_PI * s_star, TWO_PI * w_star)
    from blenderforge.return_map import df_wave_coeffs
    _, wb, xi = df_wave_coeffs(spec, TWO_PI * w_star)
    ratio = xi / (wb * math.sin(TWO_PI * s_star + spec.eta2))
    if ratio > 0:
        t_star = math.log(ratio) / math.log(spec.gamma)
        g, h = bf.eval_gh(spec, t_star, s_star, w_star)
        assert h == pytest.approx(0.0, abs=1e-10)
        assert g == pytest.approx(a, rel=1e-10)


def test_pair_sequence_csv_rows(sf1_setup):
    from blenderforge.arithmetic import pair_sequence_csv_rows
    spec, moduli = sf1_setup
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3)
    rows = list(pair_sequence_csv_rows(seq))
    assert rows[0] == ("k", "m", "t", "s", "w", "A_km", "B_km")
    assert len(rows) == len(seq.pairs) + 1
