import math

import pytest

import blenderforge as bf
from conftest import W1_IRR, sf_spec


def window_spec():
    # gamma=2, u-=1, b=1, delta=0.1
    return bf.CycleSpec("saddle_focus", 0.5, 2.0, math.pi / 2,
                        1.0, 1.0, 1.0, 1.0, 0.0, math.pi / 2, 4, 1, 2, delta=0.1)


def test_window_u_example():
    w = bf.window_u(window_spec(), m=5, q=4)
    assert w.center == pytest.approx(1 / 32, abs=1e-15)
    assert w.radius == pytest.approx(1 / 160, abs=1e-15)


def test_window_u_recurrence():
    spec = window_spec()
    for m in range(1, 12):
        w0 = bf.window_u(spec, m, 4)
        w1 = bf.window_u(spec, m + 1, 4)
        assert w1.center == pytest.approx(w0.center / spec.gamma, rel=1e-12)
        assert w1.radius == pytest.approx(w0.radius / abs(spec.gamma), rel=1e-12)


def test_window_s_degenerate_example():
    # sin(k*omega + eta1) = sin(pi) = 0 at k = 2
    spec = window_spec()
    w = bf.window_s(spec, k=2, q=4)
    assert w.center == pytest.approx(-0.25, abs=1e-15)  # (1/4) sin(3*pi/2)
    assert w.degenerate
    assert w.radius == pytest.approx(0.0, abs=1e-15)


def test_window_domain_errors():
    spec = window_spec()
    with pytest.raises(bf.DomainError):
        bf.window_u(spec, 0, 4)
    with pytest.raises(bf.DomainError):
        bf.window_s(spec, -1, 4)
    with pytest.raises(bf.NotApplicable):
        from conftest import df_spec
        bf.window_u(df_spec(), 5, 4)


@pytest.fixture
def mu_setup(sf1_setup):
    spec, moduli = sf1_setup
    return spec, moduli


def test_find_mu_sequence_properties(mu_setup):
    spec, moduli = mu_setup
    points = bf.find_mu_sequence(spec, moduli, window_count=5)
    assert len(points) >= 5
    gaps = [p.gap for p in points]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))  # strictly decreasing
    for p in points:
        # exact interval membership in both windows
        assert p.window_u.contains(p.mu)
        assert p.window_s.contains(p.mu)
        # algebraic identity: both gap evaluations agree
        assert abs(p.gap - p.gap_check) <= 1e-10


def test_find_mu_sequence_window_count_zero(mu_setup):
    spec, moduli = mu_setup
    assert bf.find_mu_sequence(spec, moduli, window_count=0) == []


def test_find_mu_sequence_requires_irrational_theta():
    spec = sf_spec(theta=1.0)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, 1), bf.RationalClass(1, 4)
    )
    with pytest.raises(bf.NotApplicable):
        bf.find_mu_sequence(spec, moduli, window_count=3)


def test_find_mu_sequence_exhaustion(mu_setup):
    spec, moduli = mu_setup
    with pytest.raises(bf.WindowExhausted):
        bf.find_mu_sequence(spec, moduli, window_count=10_000)


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------

def certs_for(spec, moduli):
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3)
    return [bf.certify(spec, seq)]


def test_homoclinic_report_at_mu_point(mu_setup):
    spec, moduli = mu_setup
    certs = certs_for(spec, moduli)
    points = bf.find_mu_sequence(spec, moduli, window_count=5)
    report = bf.homoclinic_report(spec, points[-1].mu, certs, moduli, bf.CaseTag.SF_1)
    assert report.window_u_hit is not None
    assert report.window_s_hit is not None
    kinds = {(e.src, e.dst, e.kind) for e in report.edges}
    assert ("L1", "aux_set", "homoclinic") in kinds
    assert ("L2", "aux_set", "homoclinic") in kinds
    # the blender crossing at this mu simulates successfully
    kind = certs[0].blender_kind
    activ = [e for e in report.edges if e.kind == "activates" and e.dst == kind]
    assert activ and all(e.verified for e in activ)


def test_homoclinic_report_outside_windows(mu_setup):
    spec, moduli = mu_setup
    certs = certs_for(spec, moduli)
    with pytest.raises(bf.OutsideWindows):
        bf.homoclinic_report(spec, 0.33, certs, moduli, bf.CaseTag.SF_1)


CU_L2 = ("cu", "L2", "homoclinic")
MUTUAL = (("cu", "cs", "activates"), ("cs", "cu", "activates"), ("L2", "cs", "activates"))
CS_L1 = ("cs", "L1", "homoclinic")
L1_CU = ("L1", "cu", "activates")

#: the ordered mu = 0 edges of each case tag given a cs- and a cu-, only a
#: cs- or only a cu-certificate; None: the report raises OutsideWindows
MU_ZERO_EDGES = {
    "SF-1": (None, None, None),
    "SF-2": ((CU_L2,), None, (CU_L2,)),
    "SF-3": ((CU_L2, *MUTUAL), None, (CU_L2,)),
    "SF-rational-all": (None, None, None),
    "DF-1": (None, None, None),
    "DF-2.1": ((CU_L2, *MUTUAL), None, (CU_L2,)),
    "DF-2.2": ((CU_L2,), None, (CU_L2,)),
    "DF-3.1": ((CU_L2, *MUTUAL, CS_L1), (CS_L1,), (CU_L2,)),
    "DF-3.2": ((CU_L2, *MUTUAL, CS_L1), (CS_L1,), (CU_L2,)),
    "DF-3.3.1": ((CU_L2, L1_CU), None, (CU_L2, L1_CU)),
    "DF-3.3.2": ((CU_L2, L1_CU), None, (CU_L2, L1_CU)),
    "DF-rational-all": (None, None, None),
}


@pytest.fixture(scope="module")
def sf3_certs():
    spec = sf_spec(w_hat=W1_IRR)
    moduli = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.IRRATIONAL, flags={"theta+omega1+one": "independent"})
    cs = bf.certify(spec, bf.search_pairs(spec, moduli, bf.CaseTag.SF_3, eps=1e-3, kind="cs"))
    cu = bf.certify(spec, bf.search_pairs(spec, moduli, bf.CaseTag.SF_3, eps=1e-3, kind="cu"))
    return spec, moduli, cs, cu


@pytest.mark.parametrize("subset", ["cs+cu", "cs", "cu"])
@pytest.mark.parametrize("tag", list(MU_ZERO_EDGES))
def test_homoclinic_report_mu_zero_mutual(sf3_certs, tag, subset):
    # at mu = 0 the case alone decides the edges; the SF-3 certificates
    # stand in for the blenders of every tag
    spec, moduli, cs, cu = sf3_certs
    certs = {"cs+cu": [cs, cu], "cs": [cs], "cu": [cu]}[subset]
    expected = MU_ZERO_EDGES[tag][["cs+cu", "cs", "cu"].index(subset)]
    case = bf.CaseTag(tag)
    if expected is None:
        with pytest.raises(bf.OutsideWindows):
            bf.homoclinic_report(spec, 0.0, certs, moduli, case)
        return
    report = bf.homoclinic_report(spec, 0.0, certs, moduli, case)
    assert tuple((e.src, e.dst, e.kind) for e in report.edges) == expected
    # an edge between the two blenders is simulated, the others are asserted
    for e in report.edges:
        assert (e.verified is None) == bool({e.src, e.dst} & {"L1", "L2"})


def test_homoclinic_report_mu_zero_rational_case_raises(mu_setup):
    spec, moduli = mu_setup
    certs = certs_for(spec, moduli)
    with pytest.raises(bf.OutsideWindows):
        bf.homoclinic_report(spec, 0.0, certs, moduli, bf.CaseTag.SF_1)
