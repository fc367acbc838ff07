import math

import pytest
from hypothesis import given, strategies as st

import blenderforge as bf
from builders import df_spec, sf_spec, W1_IRR

SQRT2_FLOAT = 1.4142135623730951  # nearest double to sqrt(2), frozen from mpmath


def test_theta_power_cancellation():
    assert bf.compute_theta(sf_spec(theta=1.0)) == pytest.approx(1.0, abs=1e-15)


def test_theta_exact_powers_of_two():
    spec = bf.CycleSpec("saddle_focus", 0.25, 2.0, math.pi / 2,
                        1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 4, 1, 2)
    assert bf.compute_theta(spec) == pytest.approx(2.0, abs=1e-15)


def test_theta_sqrt2_high_precision():
    spec = sf_spec(theta=math.sqrt(2))
    assert abs(bf.compute_theta(spec) - SQRT2_FLOAT) < 1e-12


@given(t=st.floats(0.2, 3.0), lam=st.floats(0.05, 0.9), gam=st.floats(1.1, 5.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_theta_invariant_under_power_substitution(t, lam, gam, sign):
    base = bf.CycleSpec("saddle_focus", lam, sign * gam, 1.0,
                        1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 4, 1, 2)
    powered = bf.CycleSpec("saddle_focus", lam ** t, sign * gam ** t, 1.0,
                           1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 4, 1, 2)
    assert bf.compute_theta(base) == pytest.approx(bf.compute_theta(powered), rel=1e-10)


def test_validation_flags_zero_b():
    spec = sf_spec(b=0.0)
    report = bf.validate_nondegeneracy(spec)
    assert not report.overall
    assert not report.entry("b != 0").ok


def test_validation_eta_pass_entry():
    spec = sf_spec(eta1=0.0, eta2=math.pi / 4)
    report = bf.validate_nondegeneracy(spec)
    assert report.entry("tan(eta1) != tan(eta2)").ok


def test_validation_eta_both_tangent_poles_fail():
    spec = sf_spec(eta1=math.pi / 2, eta2=-math.pi / 2)
    assert not bf.validate_nondegeneracy(spec).entry("tan(eta1) != tan(eta2)").ok


@given(st.integers(0, 2**32 - 1))
def test_randomized_valid_spec_passes(seed):
    from builders import rng_for
    rng = rng_for(seed)
    spec = sf_spec(
        theta=float(rng.uniform(0.3, 2.5)),
        w_hat=float(rng.uniform(0.05, 0.45)),
        gamma=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.2, 4.0)),
        A=float(rng.uniform(0.2, 3.0)), B=float(rng.uniform(0.2, 3.0)),
        b=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.2, 3.0)),
        u=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.2, 3.0)),
        eta1=0.1, eta2=1.2,
    )
    assert bf.validate_nondegeneracy(spec).overall


def test_validation_idempotent(sf1_setup):
    spec, _ = sf1_setup
    assert bf.validate_nondegeneracy(spec) == bf.validate_nondegeneracy(spec)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_sf1(sf1_setup):
    spec, moduli = sf1_setup
    assert bf.classify_case(moduli, spec) is bf.CaseTag.SF_1


def test_classify_sf_rational_all():
    spec = sf_spec(theta=1.5)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(3, 2), bf.RationalClass(1, 4)
    )
    assert bf.classify_case(moduli, spec) is bf.CaseTag.SF_RATIONAL_ALL


def test_classify_sf_irrational_angle_split():
    spec = sf_spec(w_hat=W1_IRR)
    dep = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.IRRATIONAL,
        flags={"theta+omega1+one": "dependent"},
    )
    ind = bf.moduli_from_declarations(
        spec, bf.IRRATIONAL, bf.IRRATIONAL,
        flags={"theta+omega1+one": "independent"},
    )
    assert bf.classify_case(dep, spec) is bf.CaseTag.SF_2
    assert bf.classify_case(ind, spec) is bf.CaseTag.SF_3


def test_classify_sf_theta_rational_forces_dependence():
    # rational theta is itself a relation within {theta, omega/2pi, 1}
    spec = sf_spec(theta=0.75, w_hat=W1_IRR)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(3, 4), bf.IRRATIONAL
    )
    assert bf.classify_case(moduli, spec) is bf.CaseTag.SF_2


def test_classify_ambiguous_raises():
    spec = sf_spec(w_hat=W1_IRR)
    moduli = bf.moduli_from_declarations(spec, bf.IRRATIONAL, bf.IRRATIONAL)
    with pytest.raises(bf.AmbiguousClassification):
        bf.classify_case(moduli, spec)


def test_classify_df_rational_all():
    spec = df_spec(theta=1.0)
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(1, 1), bf.RationalClass(1, 3), bf.RationalClass(1, 5)
    )
    assert bf.classify_case(moduli, spec) is bf.CaseTag.DF_RATIONAL_ALL


def test_classify_df_cases(df1_setup):
    spec, moduli = df1_setup
    assert bf.classify_case(moduli, spec) is bf.CaseTag.DF_1

    spec2 = df_spec(w1_hat=W1_IRR)
    m21 = bf.moduli_from_declarations(
        spec2, bf.IRRATIONAL, bf.IRRATIONAL, bf.RationalClass(1, 5),
        flags={"theta+omega1+one": "independent"},
    )
    assert bf.classify_case(m21, spec2) is bf.CaseTag.DF_2_1

    theta = 0.5 * W1_IRR + 1 / 3
    spec3 = df_spec(theta=theta, w1_hat=W1_IRR)
    m22 = bf.moduli_from_declarations(
        spec3, bf.IRRATIONAL, bf.IRRATIONAL, bf.RationalClass(1, 5),
        relations=[{"theta": 6, "omega1": -3, "one": -2}],
    )
    assert bf.classify_case(m22, spec3) is bf.CaseTag.DF_2_2

    spec4 = df_spec(w1_hat=W1_IRR, w2_hat=1 / math.sqrt(11))
    m31 = bf.moduli_from_declarations(
        spec4, bf.IRRATIONAL, bf.IRRATIONAL, bf.IRRATIONAL,
        flags={"theta+omega1+theta_omega2+one": "independent"},
    )
    assert bf.classify_case(m31, spec4) is bf.CaseTag.DF_3_1

    spec5 = df_spec(theta=theta, w1_hat=W1_IRR,
                    w2_hat=((1 / 3) * W1_IRR + 1 / 10) / theta)
    m331 = bf.moduli_from_declarations(
        spec5, bf.IRRATIONAL, bf.IRRATIONAL, bf.IRRATIONAL,
        relations=[{"theta": 6, "omega1": -3, "one": -2},
                   {"theta_omega2": 30, "omega1": -10, "one": -3}],
    )
    assert bf.classify_case(m331, spec5) is bf.CaseTag.DF_3_3_1

    spec6 = df_spec(theta=theta, w1_hat=W1_IRR, w2_hat=1 / math.sqrt(11))
    m332 = bf.moduli_from_declarations(
        spec6, bf.IRRATIONAL, bf.IRRATIONAL, bf.IRRATIONAL,
        relations=[{"theta": 6, "omega1": -3, "one": -2}],
        flags={"omega1+theta_omega2+one": "independent"},
    )
    assert bf.classify_case(m332, spec6) is bf.CaseTag.DF_3_3_2


@given(A=st.floats(0.2, 3.0), B=st.floats(0.2, 3.0), dlt=st.floats(0.001, 0.3))
def test_classify_ignores_irrelevant_fields(A, B, dlt):
    spec = sf_spec()
    moduli = bf.moduli_from_declarations(spec, bf.IRRATIONAL, bf.RationalClass(1, 4))
    tag = bf.classify_case(moduli, spec)
    spec2 = sf_spec(A=A, B=B, delta=dlt)
    assert bf.classify_case(moduli, spec2) is tag


def test_declared_rational_must_match_floats():
    spec = sf_spec(theta=math.sqrt(2))
    with pytest.raises(bf.DomainError):
        bf.moduli_from_declarations(spec, bf.RationalClass(3, 2), bf.RationalClass(1, 4))


def test_flag_contradiction_rejected():
    spec = sf_spec(theta=0.75, w_hat=W1_IRR)
    with pytest.raises(bf.DomainError):
        bf.moduli_from_declarations(
            spec, bf.RationalClass(3, 4), bf.IRRATIONAL,
            flags={"theta+omega1+one": "independent"},
        )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def test_spec_json_round_trip(df1_setup):
    spec, _ = df1_setup
    doc = spec.to_json_dict()
    assert doc["lambda"] == spec.lam
    assert bf.CycleSpec.from_json_dict(doc) == spec


def test_spec_json_rejects_unknown_fields():
    doc = sf_spec().to_json_dict()
    doc["extra"] = 1
    with pytest.raises(bf.DomainError):
        bf.CycleSpec.from_json_dict(doc)


def test_document_with_moduli_block(tmp_path):
    import json
    doc = sf_spec().to_json_dict()
    doc["moduli"] = {
        "theta_class": "irrational",
        "omega1_class": {"num": 1, "den": 4},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    spec, moduli = bf.load_spec_document(str(path))
    assert moduli is not None
    assert moduli.is_rational("omega1")
    assert moduli.rational("omega1").denominator == 4
    assert bf.classify_case(moduli, spec) is bf.CaseTag.SF_1


def test_rational_class_normalizes():
    rc = bf.RationalClass(2, 8)
    assert (rc.num, rc.den) == (1, 4)
    with pytest.raises(bf.DomainError):
        bf.RationalClass(0, 3)
