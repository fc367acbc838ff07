import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import blenderforge as bf
from blenderforge.return_map import CrossMapModel, ReturnCoeffs, _cone_fields, power_term
from conftest import df_spec, sf_spec


def hand_sf_spec():
    # lam=1/2, gamma=2, A=B=b=u=1, eta1=0, eta2=pi/2, omega=pi/2
    return bf.CycleSpec("saddle_focus", 0.5, 2.0, math.pi / 2,
                        1.0, 1.0, 1.0, 1.0, 0.0, math.pi / 2, 4, 1, 2)


def test_coeffs_sf_hand_example():
    rc = bf.coeffs(hand_sf_spec(), 1, 1)
    assert rc.A_km == pytest.approx(1.0, abs=1e-12)
    assert rc.B_km == pytest.approx(-1.0, abs=1e-12)


def test_coeffs_sine_zero_kills_A():
    # k*omega + eta1 = pi at k=2
    rc = bf.coeffs(hand_sf_spec(), 2, 1)
    assert rc.A_km == pytest.approx(0.0, abs=1e-12)


def test_coeffs_df_hand_example():
    # A(m*omega2) = 1/(cos pi + sin pi) = -1; A_km = 1 * (-1) * sin(pi/2) = -1
    spec = bf.CycleSpec("double_focus", 0.5, 2.0, math.pi / 2,
                        1.0, 1.0, 1.0, (1.0, 0.0), 0.0, math.pi / 2,
                        4, 1, 2, omega2=math.pi, eta3=0.0)
    rc = bf.coeffs(spec, 1, 1)
    assert rc.A_km == pytest.approx(-1.0, abs=1e-12)


def test_coeffs_requires_positive_indices():
    with pytest.raises(bf.DomainError):
        bf.coeffs(hand_sf_spec(), 0, 1)


@given(k=st.integers(1, 200), m=st.integers(1, 200))
def test_coeffs_scaling_identity(k, m):
    # stepping m -> m+1 multiplies the power by gamma, hence A_km and
    # (B_km + b*u-) exactly (saddle focus: the angles depend only on k);
    # reconstructing B_km + bu re-adds the offset, so the comparison floor
    # is the cancellation noise ~ulp(bu)
    spec = sf_spec(theta=1.3, w_hat=0.3, gamma=1.7)
    rc0 = bf.coeffs(spec, k, m)
    rc1 = bf.coeffs(spec, k, m + 1)
    bu = spec.b_coef * spec.u_scalar
    assert rc1.A_km == pytest.approx(spec.gamma * rc0.A_km, rel=1e-12, abs=1e-300)
    assert rc1.B_km + bu == pytest.approx(
        spec.gamma * (rc0.B_km + bu), rel=1e-12, abs=8.0 * 2.3e-16 * abs(bu)
    )


@given(k=st.integers(1, 1000), m=st.integers(1, 500))
def test_power_identity_through_logs(k, m):
    # for even m and lam > 0: lam^k gamma^m = |gamma|^(m - theta k)
    spec = sf_spec(theta=math.sqrt(2), gamma=-2.0)
    m = 2 * m
    theta = bf.compute_theta(spec)
    route_a = power_term(spec, k, m)
    route_b = math.exp((m - theta * k) * math.log(abs(spec.gamma)))
    assert route_a == pytest.approx(route_b, rel=1e-12)


def test_df_admissibility_follows_denominator_margins():
    spec = df_spec()
    cutoff = math.sqrt(spec.delta)
    for m in range(1, 6):
        rc = bf.coeffs(spec, 7, m)
        from blenderforge.return_map import quant_margin
        expected = quant_margin(spec, m * spec.omega2) > cutoff
        assert rc.admissible == expected


def test_sf_admissibility_is_entry_bound():
    spec, k, m = sf_spec(), 4, 6
    rc = bf.coeffs(spec, k, m)
    assert rc.admissible == (abs(rc.B_km) < spec.delta / 2)


# ---------------------------------------------------------------------------
# model map
# ---------------------------------------------------------------------------

def synthetic_model(a=0.5, b=0.01, delta=0.1, y_dim=1, z_dim=2, phi_bound=0.0):
    rc = ReturnCoeffs(k=1, m=1, A_km=a, B_km=b, admissible=True)
    return CrossMapModel(coeffs=rc, y_dim=y_dim, z_dim=z_dim, delta=delta, phi_bound=phi_bound)


def test_model_guard_and_default_rates():
    model = synthetic_model(a=4.0, y_dim=2)
    assert model.y_rate == pytest.approx(0.05 / 4.0)
    assert model.z_rate == pytest.approx(0.05)
    assert model.phi_guard == pytest.approx(0.25 * model.y_rate / 2)
    with pytest.raises(bf.DomainError):
        synthetic_model(a=4.0, y_dim=2, phi_bound=1.01 * model.phi_guard)
    with pytest.raises(bf.DomainError):
        synthetic_model(a=0.0)


def test_image_outside_cube_raises():
    # |B_km| > delta: no X of the cube maps into the cube
    model = synthetic_model(a=0.5, b=0.2, delta=0.1)
    with pytest.raises(bf.NoImageInCube):
        bf.verify_cones(model, K=0.1)


def test_empty_y_slab_raises():
    model = synthetic_model(a=0.5, b=0.0)
    # shrink the admissible Y slab to nothing
    model = replace(model, phi_bound=model.y_rate * model.delta)
    with pytest.raises(bf.NoImageInCube):
        bf.verify_cones(model, K=0.1)


# ---------------------------------------------------------------------------
# sampled oracle: the Jacobian by implicit differentiation of the cross
# relations at given gradient blocks of the remainders, and cone vectors
# drawn over the whole closed cone
# ---------------------------------------------------------------------------

def oracle_jacobian(a, y_rate, z_rate, g1, g3, g4):
    """Jacobian of (X, Y, Z) -> (Xb, Yb, Zb) with blocks ordered (X, Y, Z);
    g1 (dim,), g3 (n_y, dim) and g4 (n_z, dim) are the gradients of phi1,
    phi3 and phi4 with respect to (X, Yb, Z)."""
    n_y, n_z = g3.shape[0], g4.shape[0]
    dim = 1 + n_y + n_z
    sl_x, sl_y, sl_z = slice(0, 1), slice(1, 1 + n_y), slice(1 + n_y, dim)
    # d Yb / d(X, Y, Z): (y_rate*I + dphi3/dYb) dYb = [-dphi3/dX, I, -dphi3/dZ]
    m_yb = y_rate * np.eye(n_y) + g3[:, sl_y]
    rhs = np.zeros((n_y, dim))
    rhs[:, sl_x] = -g3[:, sl_x]
    rhs[:, sl_y] = np.eye(n_y)
    rhs[:, sl_z] = -g3[:, sl_z]
    d_yb = np.linalg.solve(m_yb, rhs)
    jac = np.zeros((dim, dim))
    jac[0, 0] = a + g1[0]
    jac[0, sl_z] = g1[sl_z]
    jac[0, :] += g1[sl_y] @ d_yb
    jac[sl_y, :] = d_yb
    jac[sl_z, sl_z] = z_rate * np.eye(n_z) + g4[:, sl_z]
    jac[sl_z, 0] += g4[:, 0]
    jac[sl_z, :] += g4[:, sl_y] @ d_yb
    return jac


def test_jacobian_matches_finite_differences():
    # remainders affine in (X, Yb, Z), so the cross relations solve exactly
    rng = np.random.default_rng(21)
    a, y_rate, z_rate, n_y, n_z = 0.6, 0.05, 0.03, 2, 2
    dim = 1 + n_y + n_z
    g1, g3, g4 = (rng.uniform(-1e-2, 1e-2, shape) for shape in (dim, (n_y, dim), (n_z, dim)))

    def forward(v):
        x, y, z = v[0], v[1:1 + n_y], v[1 + n_y:]
        yb = np.linalg.solve(y_rate * np.eye(n_y) + g3[:, 1:1 + n_y],
                             y - g3[:, 0] * x - g3[:, 1 + n_y:] @ z)
        args = np.concatenate(([x], yb, z))
        return np.concatenate(([a * x + g1 @ args], yb, z_rate * z + g4 @ args))

    jac = oracle_jacobian(a, y_rate, z_rate, g1, g3, g4)
    vec, h = rng.uniform(-0.05, 0.05, dim), 1e-6
    num = np.column_stack([(forward(vec + h * e) - forward(vec - h * e)) / (2 * h)
                           for e in np.eye(dim)])
    assert np.max(np.abs(jac - num)) < 1e-8


def draw_gradients(rng, p, n_y, n_z):
    """Gradient blocks with entries in [-p, p]: the two constant-sign
    corners, sign patterns at the corners, and uniform draws."""
    dim = 1 + n_y + n_z
    draws = [p * np.ones(dim * dim), -p * np.ones(dim * dim)]
    draws += [p * rng.choice((-1.0, 1.0), dim * dim) for _ in range(24)]
    draws += [rng.uniform(-p, p, dim * dim) for _ in range(24)]
    for flat in draws:
        yield flat[:dim], flat[dim:dim + dim * n_y].reshape(n_y, dim), \
            flat[dim + dim * n_y:dim + dim * (n_y + n_z)].reshape(n_z, dim)


def _blocks(n_y, n_z):
    return {"x": slice(0, 1), "y": slice(1, 1 + n_y), "z": slice(1 + n_y, 1 + n_y + n_z)}


#: each cone's core blocks (their norms summed) and transverse blocks
#: (each bounded by K times that sum)
CONES = {"cu": ("xy", "z"), "uu": ("y", "xz"), "cs": ("xz", "y"), "ss": ("z", "xy")}


def draw_cone_vectors(rng, cone, K, n_y, n_z, count=64):
    """Columns spread over the whole closed cone: a third keep only the
    first core block, a third only the last, and half the transverse
    blocks sit on the boundary."""
    core, transverse = CONES[cone]
    sl = _blocks(n_y, n_z)
    v = np.zeros((1 + n_y + n_z, count))
    for b in core:
        v[sl[b]] = rng.uniform(-1.0, 1.0, (sl[b].stop - sl[b].start, count))
    if len(core) == 2:
        keep = rng.integers(0, 3, count)
        v[sl[core[1]], keep == 0] = 0.0
        v[sl[core[0]], keep == 1] = 0.0
    size = sum(np.linalg.norm(v[sl[b]], axis=0) for b in core)
    for b in transverse:
        t = rng.normal(size=(sl[b].stop - sl[b].start, count))
        scale = np.where(rng.random(count) < 0.5, 1.0, rng.random(count))
        v[sl[b]] = t / np.linalg.norm(t, axis=0) * scale * K * size
    return v / np.linalg.norm(v, axis=0)


def sampled_margins(w, cone, K, n_y, n_z):
    """K minus the aperture of each image column: positive inside the cone."""
    core, transverse = CONES[cone]
    sl = _blocks(n_y, n_z)
    norm = {b: np.linalg.norm(w[sl[b]], axis=0) for b in "xyz"}
    size = sum(norm[b] for b in core)
    spread = np.max([norm[b] for b in transverse], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return K - np.where(size > 0, spread / size, np.inf)


#: (A_km, y_dim, z_dim): contracting and expanding centers, with the strong
#: rates far from and close to the center rate
ORACLE_MODELS = [(0.5, 1, 2), (2.0, 1, 2), (0.05, 2, 1), (30.0, 2, 2), (1.5, 3, 1), (0.9, 1, 1)]


@pytest.mark.parametrize("a,n_y,n_z", ORACLE_MODELS)
@pytest.mark.parametrize("K", [0.0, 0.1, 0.6])
def test_closed_form_bounds_sampled_cones(a, n_y, n_z, K):
    rng = np.random.default_rng(7)
    base = synthetic_model(a=a, b=0.0, delta=1.0, y_dim=n_y, z_dim=n_z)
    radius = bf.verify_cones(base, K).phi_radius
    sweep = sorted({0.0, 0.5 * radius, radius, 0.5 * (radius + base.phi_guard), base.phi_guard})
    for p in sweep:
        model = replace(base, phi_bound=p)
        rep = bf.verify_cones(model, K)
        verdicts = {"cu": rep.forward_cu_ok, "uu": rep.forward_uu_ok,
                    "cs": rep.backward_cs_ok, "ss": rep.backward_ss_ok}
        margins = dict(zip(CONES, _cone_fields(model, K, p)[0]))
        lowest = {cone: math.inf for cone in CONES}
        uu_norm, ss_norm, cu_core, cs_core = math.inf, 0.0, math.inf, 0.0
        z_axis = np.zeros((1 + n_y + n_z, n_z))
        z_axis[1 + n_y:] = np.eye(n_z)
        for g1, g3, g4 in draw_gradients(rng, p, n_y, n_z):
            jac = oracle_jacobian(a, model.y_rate, model.z_rate, g1, g3, g4)
            try:
                jac_inv = np.linalg.inv(jac)
            except np.linalg.LinAlgError:
                assert not (rep.backward_cs_ok or rep.backward_ss_ok), p
                jac_inv = None
            for cone in CONES:
                if jac_inv is None and cone in ("cs", "ss"):
                    continue
                v = draw_cone_vectors(rng, cone, K, n_y, n_z)
                w = (jac if cone in ("cu", "uu") else jac_inv) @ v
                lowest[cone] = min(lowest[cone], float(np.min(sampled_margins(w, cone, K, n_y, n_z))))
                if cone == "uu":
                    uu_norm = min(uu_norm, float(np.min(np.linalg.norm(jac @ v, axis=0))))
            ss_norm = max(ss_norm, float(np.max(np.linalg.norm(jac @ z_axis, axis=0))))
            # K = 0 draws the cores: Z = 0 for cu, Y = 0 for cs
            cu_core = min(cu_core, float(np.min(np.linalg.norm(
                jac @ draw_cone_vectors(rng, "cu", 0.0, n_y, n_z), axis=0))))
            cs_core = max(cs_core, float(np.max(np.linalg.norm(
                jac @ draw_cone_vectors(rng, "cs", 0.0, n_y, n_z), axis=0))))
        tol = 1e-12
        for cone in CONES:
            # the closed form never claims a cone that a sample leaves ...
            if verdicts[cone]:
                assert lowest[cone] > 0.0 if K > 0.0 else lowest[cone] >= -tol, (p, cone)
            # ... and its margin bounds every sampled margin from below
            assert lowest[cone] >= margins[cone] - tol * (1.0 + abs(margins[cone])), (p, cone)
        assert rep.min_margin == min(margins.values())
        assert uu_norm >= rep.min_expansion_uu * (1.0 - tol)
        assert ss_norm <= rep.max_contraction_ss * (1.0 + tol)
        if rep.center_expansion_ok:
            assert cu_core > 1.0
        if rep.center_contraction_ok:
            assert cs_core < 1.0


@pytest.mark.parametrize("a,n_y,n_z", ORACLE_MODELS)
@pytest.mark.parametrize("K", [0.1, 0.6, 3.0])
def test_verdicts_hold_below_phi_radius(a, n_y, n_z, K):
    base = synthetic_model(a=a, b=0.0, delta=1.0, y_dim=n_y, z_dim=n_z)
    radius = bf.verify_cones(base, K).phi_radius
    assert 0.0 < radius <= base.phi_guard
    flags = ("forward_cu_ok", "forward_uu_ok", "backward_cs_ok", "backward_ss_ok",
             "center_expansion_ok", "center_contraction_ok")
    rep = bf.verify_cones(replace(base, phi_bound=0.999 * radius), K)
    assert rep.phi_radius == radius
    assert all(getattr(rep, f) is not False for f in flags)
    if radius < base.phi_guard:
        # the radius is the largest such bound: just above it a verdict fails
        above = bf.verify_cones(replace(base, phi_bound=min(1.001 * radius, base.phi_guard)), K)
        assert any(getattr(above, f) is False for f in flags)


# ---------------------------------------------------------------------------
# cone verification
# ---------------------------------------------------------------------------

def test_cones_contracting_band():
    model = synthetic_model(a=0.5, b=0.0)
    rep = bf.verify_cones(model, K=0.1)
    assert rep.forward_cu_ok and rep.forward_uu_ok
    assert rep.backward_cs_ok and rep.backward_ss_ok
    assert rep.min_expansion_uu > 1.0
    assert rep.max_contraction_ss < 1.0
    assert rep.center_contraction_claimed and rep.center_contraction_ok
    # expansion of the center cone is NOT claimed when |A| < 1
    assert not rep.center_expansion_claimed
    assert rep.center_expansion_ok is None


def test_cones_expanding_band():
    model = synthetic_model(a=2.0, b=0.0)
    rep = bf.verify_cones(model, K=0.1)
    assert rep.center_expansion_claimed and rep.center_expansion_ok
    assert rep.forward_cu_ok and rep.backward_cs_ok


def test_cones_degenerate_K_zero():
    model = synthetic_model(a=0.5, b=0.0)
    rep = bf.verify_cones(model, K=0.0)
    assert rep.forward_cu_ok and rep.forward_uu_ok
    assert rep.backward_cs_ok and rep.backward_ss_ok
    # at K = 0 any remainder tilts the axis subspaces
    assert rep.phi_radius == 0.0


def test_cones_pass_on_searched_pairs(sf1_setup):
    spec, moduli = sf1_setup
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3)
    for (k, m) in seq.pairs[:5]:
        model = bf.build_model(spec, k, m)
        rep = bf.verify_cones(model, K=0.1)
        assert rep.forward_cu_ok and rep.forward_uu_ok
        assert rep.backward_cs_ok and rep.backward_ss_ok
        assert rep.min_margin > 0
        assert rep.phi_radius > 0
