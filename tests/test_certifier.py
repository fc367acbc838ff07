import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blenderforge as bf
from blenderforge import arithmetic, blender_certifier
from blenderforge.arithmetic import PairSequence
from blenderforge.blender_certifier import (
    AUTO_SHRINK_FACTOR,
    AUTO_SHRINK_FLOOR,
    BlenderCertificate,
    DiscRecord,
    _affine_images,
    _attractor_points,
    _c_grid,
    _chain_mask,
    _contracting_maps,
    _cover_frame,
    _masked_grid,
    _pull_back,
    chain_cover,
)
from blenderforge.rng import philox_rng
from conftest import sf_spec


def synthetic_sequence(a_values, b_values, case=bf.CaseTag.SF_1):
    n = len(a_values)
    pairs = tuple((i + 1, 1) for i in range(n))
    return PairSequence(
        pairs=pairs,
        target_values=tuple((0.0, 0.0, 0.0) for _ in range(n)),
        A_values=tuple(a_values),
        B_values=tuple(b_values),
        case=case,
    )


def union_covers(images, left, right):
    """Exact union sweep: do the closed images cover [left, right]?"""
    reach = left
    for lo, hi in sorted(images):
        if lo > reach:
            return False
        reach = max(reach, hi)
        if reach >= right:
            return True
    return reach >= right


FIVE_B = (-0.04, -0.02, 0.0, 0.02, 0.04)


def test_five_map_example_certificate():
    spec = sf_spec(delta=0.1)
    seq = synthetic_sequence([0.5] * 5, FIVE_B)
    cert = bf.certify(spec, seq, overlap_min=0.005, c=0.5)
    assert cert.blender_kind == "cs"
    assert cert.index == spec.d1
    assert cert.interval_I == (-0.05, 0.05)
    # each image is [B - 0.025, B + 0.025]; their union covers [-0.065, 0.065]
    # and adjacent images overlap by 0.03 (interval-arithmetic oracle)
    images = [(b - 0.025, b + 0.025) for b in FIVE_B]
    assert union_covers(images, -0.065, 0.065)
    for (lo1, hi1), (lo2, hi2) in zip(images, images[1:]):
        assert hi1 - lo2 == pytest.approx(0.03, abs=1e-15)
    # the greedy witness is a minimal sub-chain of those images
    eff_a, eff_b = cert.effective_maps()
    for w in cert.witness:
        expect = (FIVE_B[w.n] - 0.025, FIVE_B[w.n] + 0.025)
        assert w.interval == pytest.approx(expect, abs=1e-15)
    assert cert.witness[0].interval[0] == pytest.approx(-0.065, abs=1e-15)
    assert cert.witness[-1].interval[1] == pytest.approx(0.065, abs=1e-15)
    for w in cert.witness[1:]:
        assert w.overlap is not None and w.overlap >= cert.overlap_min
    assert bf.recheck_witness(cert)


def test_single_contraction_cannot_cover():
    spec = sf_spec(delta=0.1)
    seq = synthetic_sequence([0.5], [0.0])
    with pytest.raises(bf.CoverageGap) as err:
        bf.certify(spec, seq, c=0.5)
    assert err.value.uncovered is not None


def test_expanding_band_certifies_via_inverse_maps():
    spec = sf_spec(delta=0.1)
    seq = synthetic_sequence([2.0] * 5, FIVE_B)
    cert = bf.certify(spec, seq)
    assert cert.blender_kind == "cu"
    assert cert.index == spec.d2
    assert cert.A_band[0] > 1.0
    assert bf.recheck_witness(cert)


def test_cs_cu_duality():
    # certifying (A, B) as cu equals certifying (1/A, -B/A) as cs
    spec = sf_spec(delta=0.1)
    a_vals = [2.0, 2.2, 1.9, 2.4, 2.1]
    b_vals = list(FIVE_B)
    cu = bf.certify(spec, synthetic_sequence(a_vals, b_vals))
    inv_a = [1 / a for a in a_vals]
    inv_b = [-b / a for a, b in zip(a_vals, b_vals)]
    cs = bf.certify(spec, synthetic_sequence(inv_a, inv_b), c=cu.c)
    assert cu.blender_kind == "cu" and cs.blender_kind == "cs"
    assert [w.n for w in cu.witness] == [w.n for w in cs.witness]
    for wu, wc in zip(cu.witness, cs.witness):
        assert wu.interval == pytest.approx(wc.interval, abs=1e-15)


def test_band_violation_straddles_one():
    spec = sf_spec(delta=0.1)
    with pytest.raises(bf.BandViolation):
        bf.certify(spec, synthetic_sequence([0.5, 2.0], [0.0, 0.01]))
    with pytest.raises(bf.BandViolation):
        bf.certify(spec, synthetic_sequence([0.5, 1.0 + 1e-12], [0.0, 0.01]))


def test_certify_monotone_in_pairs():
    spec = sf_spec(delta=0.1)
    base_a, base_b = [0.5] * 5, list(FIVE_B)
    cert = bf.certify(spec, synthetic_sequence(base_a, base_b), c=0.5)
    bigger = bf.certify(
        spec,
        synthetic_sequence(base_a + [0.55, 0.6], base_b + [0.01, -0.03]),
        c=0.5,
    )
    assert bigger.blender_kind == cert.blender_kind  # still succeeds


def test_auto_shrink_reports_feasible_c(sf1_setup):
    spec, moduli = sf1_setup
    seq = bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3)
    cert = bf.certify(spec, seq)
    assert 0 < cert.c < spec.c_frac
    assert bf.recheck_witness(cert)
    # the reported c is feasible and the next grid step up is not required
    again = bf.certify(spec, seq, c=cert.c)
    assert again.interval_I == pytest.approx(cert.interval_I, abs=1e-12)


def test_chain_cover_matches_reachability_oracle():
    # greedy-with-margin reaches at least as far as any chain (exhaustive BFS)
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        images = []
        for _ in range(n):
            lo = float(rng.uniform(-1.0, 0.8))
            images.append((lo, lo + float(rng.uniform(0.05, 0.6))))
        left, right = -0.5, 0.5
        m = 0.02
        chain, _ = chain_cover(images, left, right, m)
        # BFS over the interval graph
        start = [i for i, (lo, hi) in enumerate(images) if lo <= left]
        seen = set(start)
        frontier = list(start)
        feasible = any(images[i][1] >= right for i in seen)
        while frontier and not feasible:
            nxt = []
            for i in frontier:
                for j, (lo, hi) in enumerate(images):
                    if j not in seen and lo <= images[i][1] - m and hi > images[i][1]:
                        seen.add(j)
                        nxt.append(j)
                        if hi >= right:
                            feasible = True
            frontier = nxt
        assert (chain is not None) == feasible


# ---------------------------------------------------------------------------
# c descent
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"


def certify_at(spec, seq, c, overlap_min=None, center=0.0):
    """The certificate at exactly c, or None when no chain covers there."""
    try:
        return bf.certify(spec, seq, overlap_min=overlap_min, c=c, center=center)
    except bf.CoverageGap:
        return None


def sequential_certify(spec, seq, overlap_min=None, center=0.0):
    """The c descent as a walk over every grid value: the first c of the
    x AUTO_SHRINK_FACTOR grid at which a chain exists, refined by 50
    bisection steps, and the certificate at the c so found."""
    def cert_at(c):
        return certify_at(spec, seq, c, overlap_min, center)

    c_try = spec.c_frac
    while c_try > AUTO_SHRINK_FLOOR:
        if cert_at(c_try) is not None:
            break
        c_try *= AUTO_SHRINK_FACTOR
    else:
        raise bf.CoverageGap("no interval size admits a covering chain", uncovered=None)
    c_lo, c_hi = c_try, min(spec.c_frac, c_try / AUTO_SHRINK_FACTOR)
    for _ in range(50):
        mid = 0.5 * (c_lo + c_hi)
        if cert_at(mid) is not None:
            c_lo = mid
        else:
            c_hi = mid
    return cert_at(c_lo)


def outcome(certify, spec, seq, **kw):
    try:
        return certify(spec, seq, **kw)
    except bf.CoverageGap as err:
        return "gap", str(err), err.uncovered
    except bf.BandViolation as err:
        return "band", str(err)


def assert_descent_matches_oracle(spec, seq, **kw):
    got = outcome(bf.certify, spec, seq, **kw)
    assert got == outcome(sequential_certify, spec, seq, **kw)
    return got


def searched_docs():
    """The `tests/data/` documents of a searched case tag."""
    for path in sorted(DATA.glob("*.json")):
        spec, moduli = bf.load_spec_document(str(path))
        if bf.classify_case(moduli, spec) in arithmetic.CASES:
            yield path.name


@pytest.mark.parametrize("doc", list(searched_docs()))
def test_descent_matches_sequential_oracle_on_searched_pairs(doc):
    spec, moduli = bf.load_spec_document(str(DATA / doc))
    tag = bf.classify_case(moduli, spec)
    searched = 0
    for kind in arithmetic.CASES[tag].kinds:
        for eps in (1e-3, 1e-2):
            try:
                seq = bf.search_pairs(spec, moduli, tag, eps=eps, kind=kind)
            except bf.WindowExhausted:
                continue
            searched += 1
            assert_descent_matches_oracle(spec, seq)
    if not searched:
        pytest.skip("no search keeps a pair")


@st.composite
def tie_sets(draw):
    """(delta, den, rows, overlap_min, center) with rows (64|A|, sign of A,
    j) and B = j*delta/den.  With delta and den powers of two every image
    end at c = c_frac is exact, so ends meet left, and overlaps meet omin,
    exactly; with den = 400 equal images repeat exactly."""
    delta, den = draw(st.sampled_from([(0.1, 400), (0.125, 64), (0.125, 256)]))
    lo, hi = draw(st.sampled_from([(13, 54), (70, 320)]))
    row = st.tuples(st.integers(lo, hi), st.booleans(), st.integers(-30, 30))
    rows = draw(st.lists(row, min_size=1, max_size=14))
    step = delta / den
    overlap = draw(st.sampled_from([None, 0.0, step, 2 * step, 4 * step]))
    center = draw(st.sampled_from([0.0, step, -3 * step, 0.0123]))
    return delta, den, rows, overlap, center


def tie_sequence(delta, den, rows):
    a = [(-1.0 if neg else 1.0) * num / 64 for num, neg, _ in rows]
    b = [j * delta / den for _, _, j in rows]
    return sf_spec(delta=delta), synthetic_sequence(a, b)


def contracting(seq):
    """(eff_a, eff_b, eff_min) of the sequence's band, as `certify` takes them."""
    kind, lo, hi = blender_certifier._band(seq.A_values)
    eff_a, eff_b = _contracting_maps(seq.A_values, seq.B_values, kind)
    return eff_a, eff_b, lo if kind == "cs" else 1.0 / hi


def mask_of(spec, seq, cs, overlap_min=None, center=0.0):
    eff_a, eff_b, eff_min = contracting(seq)
    return _chain_mask(eff_a, eff_b, np.asarray(cs, dtype=float), spec.delta, overlap_min,
                       eff_min, center).tolist()


@settings(max_examples=25)
@given(tie_sets())
@example((0.1, 400, [(13, False, 0), (21, False, -8), (50, False, 3), (50, True, 3)], None,
          0.0))
def test_descent_matches_sequential_oracle_on_generated_pairs(case):
    delta, den, rows, overlap, center = case
    spec, seq = tie_sequence(delta, den, rows)
    assert_descent_matches_oracle(spec, seq, overlap_min=overlap, center=center)


@settings(max_examples=15)
@given(tie_sets())
def test_mask_keeps_every_grid_c_that_chains(case):
    delta, den, rows, overlap, center = case
    spec, seq = tie_sequence(delta, den, rows)
    grid = _c_grid(spec.c_frac)
    mask = mask_of(spec, seq, grid, overlap, center)
    for c, kept in zip(grid, mask):
        assert kept or certify_at(spec, seq, c, overlap, center) is None


def exact_tie_chain(shift=0.0, extra=()):
    """Three maps x -> x/2 + B at delta = 1/8, c = 1/2 and overlap 1/64: the
    first image starts exactly at left, each next one overlaps the last by
    exactly 1/64, and the third ends past right; `shift` moves the third,
    and `extra` adds maps with these B."""
    spec = sf_spec(delta=0.125)
    half, omin, left, right = _cover_frame(0.5, spec.delta, 2.0 ** -6, 0.5, 0.0)
    width = 0.5 * half                   # half-width of each image
    b1 = left + width
    b2 = (b1 + width - omin) + width
    b3 = (b2 + width - omin) + width + shift
    seq = synthetic_sequence([0.5] * (3 + len(extra)), [b1, b2, b3, *extra])
    images = _affine_images(*_contracting_maps(seq.A_values, seq.B_values, "cs"), -half, half)
    return spec, seq, images, omin, left, right


def test_mask_keeps_a_chain_of_exact_ties():
    spec, seq, images, omin, left, right = exact_tie_chain()
    assert images[0][0] == left
    assert images[1][0] == images[0][1] - omin and images[2][0] == images[1][1] - omin
    assert images[2][1] >= right
    assert chain_cover(images, left, right, omin)[0] == [0, 1, 2]
    assert mask_of(spec, seq, [0.5], overlap_min=omin) == [True]
    # one step short of the overlap, no chain exists and the mask says so
    spec, seq, images, omin, left, right = exact_tie_chain(shift=2.0 ** -30)
    assert chain_cover(images, left, right, omin)[0] is None
    assert mask_of(spec, seq, [0.5], overlap_min=omin) == [False]
    # the last link ends exactly at right, alone or with an image past right
    for extra in ([], [0.5]):
        spec, seq, images, omin, left, right = exact_tie_chain(-2.0 ** -6, extra)
        assert images[2][1] == right and all(lo > right for lo, _ in images[3:])
        assert chain_cover(images, left, right, omin)[0] == [0, 1, 2]
        assert mask_of(spec, seq, [0.5], overlap_min=omin) == [True]


@settings(max_examples=15)
@given(tie_sets())
def test_mask_at_overlap_zero_is_the_union_sweep(case):
    delta, den, rows, _, center = case
    spec, seq = tie_sequence(delta, den, rows)
    eff_a, eff_b, eff_min = contracting(seq)
    grid = _c_grid(spec.c_frac)
    for c, kept in zip(grid, mask_of(spec, seq, grid, 0.0, center)):
        half, _, left, right = _cover_frame(c, spec.delta, 0.0, eff_min, center)
        images = _affine_images(eff_a, eff_b, center - half, center + half)
        assert kept == union_covers(images, left, right)


@pytest.mark.parametrize("nan_at", [0, 2, 5])
def test_descent_matches_sequential_oracle_with_a_nan_map(nan_at):
    # a NaN image end passes the mask, so the walk decides as before
    b = list(FIVE_B)
    b.insert(nan_at, math.nan)
    seq = synthetic_sequence([0.5] * 6, b)
    assert isinstance(assert_descent_matches_oracle(sf_spec(delta=0.1), seq), BlenderCertificate)


def test_grid_is_the_repeated_shrink():
    grid = _c_grid(0.5)
    assert len(grid) == 277 and grid[0] == 0.5 and grid[-1] > AUTO_SHRINK_FLOOR
    c = 0.5
    for value in grid:
        assert value == c
        c *= AUTO_SHRINK_FACTOR
    assert c <= AUTO_SHRINK_FLOOR


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_masked_grid_in_blocks_is_the_one_pass_mask(monkeypatch, cells):
    spec = sf_spec(delta=0.1)
    sets = [([0.5] * 5, FIVE_B), ([0.5, 0.5], [0.0, 0.001]),
            ([0.3, -0.45, 0.6, 0.5], [-0.03, 0.0, 0.01, 0.035]), ([2.0, 2.5, 1.7], FIVE_B[:3])]
    grid = _c_grid(spec.c_frac)
    expected = []
    for a, b in sets:
        mask = mask_of(spec, synthetic_sequence(a, b), grid)
        expected.append([c for c, ok in zip(grid, mask) if ok])
    monkeypatch.setattr(blender_certifier, "MASK_CELLS", cells)
    for (a, b), kept in zip(sets, expected):
        seq = synthetic_sequence(a, b)
        eff_a, eff_b, eff_min = contracting(seq)
        assert list(_masked_grid(eff_a, eff_b, spec.c_frac, spec.delta, None, eff_min, 0.0)) == kept
        assert_descent_matches_oracle(spec, seq)


def test_uncoverable_pair_set_walks_no_chain(monkeypatch):
    calls = []
    real = blender_certifier.chain_cover
    monkeypatch.setattr(blender_certifier, "chain_cover",
                        lambda *args: calls.append(1) or real(*args))
    spec = sf_spec(delta=0.1)
    with pytest.raises(bf.CoverageGap, match="no interval size admits a covering chain"):
        bf.certify(spec, synthetic_sequence([0.5, 0.5], [0.0, 0.001]))
    assert calls == []
    # a pair set that covers walks chains only at the first chained grid c
    # and in the bisection
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B))
    assert len(calls) == 1 + 50
    assert bf.recheck_witness(cert)


# ---------------------------------------------------------------------------
# covering simulation
# ---------------------------------------------------------------------------

def test_simulation_five_map_example():
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    report = bf.simulate_covering(spec, cert, n_discs=100, seed=3, depth=30)
    assert report.all_ok
    assert report.step_factor_min == pytest.approx(0.5, abs=1e-12)
    assert report.step_factor_max == pytest.approx(0.5, abs=1e-12)


def test_simulation_depth_zero_vacuous():
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    report = bf.simulate_covering(spec, cert, n_discs=5, seed=0, depth=0)
    assert report.all_ok
    assert report.survivors == 5


def test_simulation_adversarial_wide_disc():
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    (rec,) = _pull_back(cert, seed=1, indices=[0], depth=5, x_centers=[0.0],
                        x_extent=3.0 * cert.c * cert.delta).records()
    assert not rec.ok
    assert rec.fail_step == 1
    assert "margin" in rec.note


def doctored(cert, **changes):
    doc = cert.to_json_dict()
    doc.update(changes)
    return BlenderCertificate.from_json_dict(doc)


def test_simulation_reports_first_failure():
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    # widen the sampled extent beyond the overlap guarantee via a doctored
    # copy: discs sampled at overlap_min/2 = 0.25 wide
    bad = doctored(cert, overlap_min=0.5)
    report = bf.simulate_covering(spec, bad, n_discs=3, seed=0, depth=3)
    assert not report.all_ok
    first = next(r for r in report.per_disc if not r.ok)
    assert first.index == 0
    assert first.fail_step == 1


def reference_disc(cert, index, seed, depth, x_center=None, x_extent=None):
    """Scalar oracle of the vectorised pullback: one disc, one witness at a
    time, first strictly larger margin wins."""
    rng = philox_rng(seed, index)
    lo_i, hi_i = cert.interval_I
    extent = cert.overlap_min / 2.0 if x_extent is None else x_extent
    if x_center is None:
        pad = extent / 2.0
        if lo_i + pad < hi_i - pad:
            x_center = float(rng.uniform(lo_i + pad, hi_i - pad))
        else:
            x_center = 0.5 * (lo_i + hi_i)
    amp = extent / 2.0
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    anchor = x_center + amp * math.sin(phase)

    eff_a, eff_b = cert.effective_maps()
    images = {w.n: w.interval for w in cert.witness}
    raw_a = np.asarray(cert.A_values)

    steps, factors = [], []
    x_lo, x_hi = x_center - amp, x_center + amp
    x_point = anchor
    for step in range(1, depth + 1):
        best_n, best_margin = None, -math.inf
        for n, (ilo, ihi) in images.items():
            margin = min(x_lo - ilo, ihi - x_hi)
            if margin > best_margin:
                best_n, best_margin = n, margin
        if best_n is None or best_margin < 0.0:
            return DiscRecord(
                index=index, x_center=x_center, x_extent=extent, ok=False,
                fail_step=step, steps=tuple(steps), step_factors=tuple(factors),
                note=(
                    f"X-range [{x_lo!r}, {x_hi!r}] exceeds every witness image; "
                    f"best containment margin {best_margin!r} < 0 "
                    f"(extent above the overlap guarantee)"
                ),
            )
        x_point = (x_point - float(eff_b[best_n])) / float(eff_a[best_n])
        x_lo = x_hi = x_point
        steps.append(best_n)
        factors.append(abs(float(raw_a[best_n])))
    return DiscRecord(
        index=index, x_center=x_center, x_extent=extent, ok=True,
        fail_step=None, steps=tuple(steps), step_factors=tuple(factors),
    )


def assert_matches_oracle(cert, seed, indices, depth, x_centers=None, x_extent=None):
    records = _pull_back(cert, seed, indices, depth, x_centers=x_centers,
                         x_extent=x_extent).records()
    assert [r.index for r in records] == list(indices)
    for j, (rec, index) in enumerate(zip(records, indices)):
        center = None if x_centers is None else x_centers[j]
        expect = reference_disc(cert, index, seed, depth, x_center=center, x_extent=x_extent)
        assert rec == expect
        assert all(type(n) is int for n in rec.steps)
    return records


def test_pullback_matches_scalar_oracle_cs_and_cu():
    spec = sf_spec(delta=0.1)
    cs = bf.certify(spec, synthetic_sequence([0.5] * 9, dense_bs(-0.04, 0.04, 9)), c=0.5)
    cu = bf.certify(spec, synthetic_sequence([2.0, 2.2, 1.9, 2.4, 2.1], FIVE_B))
    assert (cs.blender_kind, cu.blender_kind) == ("cs", "cu")
    for cert in (cs, cu):
        for seed in (0, 5):
            records = assert_matches_oracle(cert, seed, range(40), depth=25)
            assert all(r.ok for r in records)
        assert_matches_oracle(cert, 3, [7, 2, 11], depth=0)


def test_pullback_matches_scalar_oracle_searched_certificate(sf1_setup):
    spec, moduli = sf1_setup
    cert = bf.certify(spec, bf.search_pairs(spec, moduli, bf.CaseTag.SF_1, eps=1e-3))
    assert_matches_oracle(cert, 4, range(30), depth=40)


def test_pullback_matches_scalar_oracle_fixed_centers():
    # check_activation feeds attractor points of the other certificate
    spec = sf_spec(delta=0.1)
    cs = bf.certify(spec, synthetic_sequence([0.5] * 9, dense_bs(-0.04, 0.04, 9)), c=0.5)
    cu = bf.certify(spec, synthetic_sequence([2.0] * 17, dense_bs(-0.1, 0.1, 17)), c=0.5)
    for src, dst in ((cs, cu), (cu, cs)):
        points = _attractor_points(src, 30, philox_rng(2, 1))
        assert_matches_oracle(dst, 3, range(30), depth=10, x_centers=points)


def test_pullback_matches_scalar_oracle_failures():
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    # discs 0.25 wide exceed every image at step 1 (and are wider than I)
    wide = doctored(cert, overlap_min=0.5)
    records = assert_matches_oracle(wide, 0, range(10), depth=6)
    assert {r.fail_step for r in records} == {1}
    # a chain without its middle link leaves a gap that pulled-back points
    # reach only after some steps
    broken = doctored(cert, witness=[w for i, w in enumerate(cert.to_json_dict()["witness"])
                                     if i != len(cert.witness) // 2])
    records = assert_matches_oracle(broken, 1, range(60), depth=12)
    assert {1, 2, 3} <= {r.fail_step for r in records}
    # discs wider than I at explicit extents and centers
    assert_matches_oracle(cert, 2, range(5), depth=4, x_centers=[0.0, 0.01, -0.02, 0.03, 0.5],
                          x_extent=3.0 * cert.c * cert.delta)


def test_pullback_matches_scalar_oracle_centered_wide_discs():
    # discs wider than a doctored narrow I sit at its midpoint, so the phase
    # takes the first draw; inside the middle image they survive step 1, and
    # the phase then decides each disc's itinerary
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    narrow = doctored(cert, interval_I=["-0.001", "0.001"])
    records = assert_matches_oracle(narrow, 4, range(20), depth=8)
    assert {r.x_center for r in records} == {0.0}
    assert all(r.ok for r in records) and len({r.steps for r in records}) > 1


def test_pullback_matches_scalar_oracle_ties():
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    # a margin of exactly 0 keeps the disc: [-0.065, -0.045] ends on the
    # first image's left end
    (edge,) = assert_matches_oracle(cert, 0, [0], depth=3, x_centers=[-0.055], x_extent=0.02)
    assert edge.ok and edge.steps[0] == cert.witness[0].n
    # an entry repeating the middle image under another map index ties with
    # it everywhere; the first of equal margins wins
    doc = cert.to_json_dict()["witness"]
    twin = {**doc[1], "n": 1}
    tied = doctored(cert, witness=doc[:2] + [twin] + doc[2:])
    records = assert_matches_oracle(tied, 6, range(40), depth=10)
    assert 1 not in {n for r in records for n in r.steps}
    # a NaN image never wins, as if it were missing from the chain
    blank = doctored(cert, witness=doc[:1] + [{**doc[1], "interval": ["nan", "nan"]}] + doc[2:])
    records = assert_matches_oracle(blank, 6, range(40), depth=10)
    assert doc[1]["n"] not in {n for r in records for n in r.steps}


def test_certificate_json_round_trip():
    spec = sf_spec(delta=0.1)
    cert = bf.certify(spec, synthetic_sequence([0.5] * 5, FIVE_B), c=0.5)
    clone = BlenderCertificate.from_json_dict(cert.to_json_dict())
    assert clone == cert


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def dense_bs(lo, hi, n):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def test_mutual_activation_same_cube():
    spec = sf_spec(delta=0.1)
    cs = bf.certify(spec, synthetic_sequence([0.5] * 9, dense_bs(-0.04, 0.04, 9)), c=0.5)
    cu = bf.certify(
        spec, synthetic_sequence([2.0] * 17, dense_bs(-0.1, 0.1, 17)), c=0.5
    )
    report = bf.check_activation(cs, cu, spec, n_discs=30, seed=2, depth=10)
    assert report.mutual
    assert report.a_to_b_survivors >= 1
    assert report.b_to_a_survivors >= 1


def test_activation_kind_mismatch():
    spec = sf_spec(delta=0.1)
    cs = bf.certify(spec, synthetic_sequence([0.5] * 9, dense_bs(-0.04, 0.04, 9)), c=0.5)
    with pytest.raises(bf.KindMismatch):
        bf.check_activation(cs, cs, spec)


def test_activation_disjoint_cubes_false():
    spec = sf_spec(delta=0.1)
    cs = bf.certify(spec, synthetic_sequence([0.5] * 9, dense_bs(-0.04, 0.04, 9)), c=0.5)
    # fixed point -B/(A-1) must sit at the shifted center
    far = [-5.0 + b for b in dense_bs(-0.1, 0.1, 17)]
    cu = bf.certify(
        spec, synthetic_sequence([2.0] * 17, far), c=0.5, center=5.0,
    )
    report = bf.check_activation(cs, cu, spec, n_discs=20, seed=2, depth=6)
    assert not report.a_activates_b
    assert report.diagnostic
