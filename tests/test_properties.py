"""Properties of the pair searches and of `certify` that rest on no golden.

Search: every kept pair lies on the lattice its case's kernel states (the
residue class of the picked witness, the m class or sign period, the
relation's k step), has its band value in the requested band where the
kernel filters on it, is admissible with bit-exact coefficients, and
meets eps wherever eps bounds |B_km| or the torus distance.  Every searched
case tag is covered at eps 1e-3, 1e-2 and inf, for each kind it yields.

Certify: the certificate does not depend on the order of the pairs; more
pairs never lose a certificate or shrink c; the conjugacies x -> lam*x
(delta and every B_n scaled by lam) and x -> -x (every B_n negated) carry
a certificate to one with the same c; and every disc simulated on a
certificate survives.  These run on every searched
pair sequence of the `tests/data/` documents that certifies, and on
generated pair sets.
"""

import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blenderforge as bf
from blenderforge import arithmetic
from blenderforge.arithmetic import PairSequence, alpha_df, alpha_sf
from blenderforge.return_map import sign_period
from conftest import sf_spec

DATA = Path(__file__).parent / "data"
TWO_PI = 2.0 * math.pi

#: documents searched per case tag: two where a second one is cheap to search
#: or certifies
SEARCHED = {
    "SF-1": ("sf_1_0", "sf_1_1"),
    "SF-2": ("sf_2_0", "sf_2_2"),
    "SF-3": ("sf_3_0", "sf_3_1"),
    "DF-1": ("df_1_0", "df_1_2"),
    "DF-2.1": ("df_2_1_0", "df_2_1_1"),
    "DF-2.2": ("df_2_2_3",),
    "DF-3.1": ("df_3_1_from_df_3_3_2_2",),
    "DF-3.2": ("df_3_2_from_df_2_1_1",),
    "DF-3.3.1": ("df_3_3_1_1",),
    "DF-3.3.2": ("df_3_3_2_2",),
}
EPS = (1e-3, 1e-2, math.inf)
#: cases whose eps bounds |B_km|; the others bound the torus distance by it
#: (DF-1, DF-3.1, DF-3.2) or neither (DF-3.3.2)
B_BOUNDED = {"SF-1", "SF-2", "SF-3", "DF-2.1", "DF-2.2", "DF-3.3.1"}
TORUS_BOUNDED = {"DF-1", "DF-3.1", "DF-3.2"}
#: the line-profile cases, which keep expanding pairs only
LINE = {"SF-2", "DF-2.2", "DF-3.3.1", "DF-3.3.2"}


@lru_cache(maxsize=None)
def load(doc):
    return bf.load_spec_document(str(DATA / f"{doc}.json"))


@lru_cache(maxsize=None)
def search(doc, eps, kind, min_pairs=1):
    """The searched pair sequence, or None when the search keeps nothing."""
    spec, moduli = load(doc)
    try:
        return bf.search_pairs(spec, moduli, bf.classify_case(moduli, spec), eps=eps,
                               kind=kind, min_pairs=min_pairs)
    except bf.WindowExhausted:
        return None


def relation(moduli, keys, lead):
    """{key: rational coefficient} of the declared relation solved for lead."""
    c = moduli.relation_for(keys).coeffs
    return {key: Fraction(-c.get(key, 0), c[lead]) for key in keys if key != lead}


def circle_gap(x, centre):
    return abs((x - centre + 0.5) % 1.0 - 0.5)


def in_band(alpha, kind):
    lo, hi = {"cs": (0.3, 0.7), "cu": (1.5, 3.0)}[kind]
    return lo * (1 - 1e-12) <= abs(alpha) <= hi * (1 + 1e-12)


def assert_on_lattice(tag, spec, moduli, seq, kind):
    """Each kept pair lies on the lattice of its case's kernel."""
    res, target = seq.residue, seq.target
    step = sign_period(spec)
    for (k, m), (t, s, w) in zip(seq.pairs, seq.target_values):
        if tag == "SF-1":
            f = moduli.rational("omega1")
            assert res["r"] == bf.check_A1(spec, f.denominator, f.numerator)[0].r
            assert (res["q"], k % res["q"], m % step) == (f.denominator, res["r"], 0)
        elif tag == "DF-1":
            f1, f2 = moduli.rational("omega1"), moduli.rational("omega2")
            wit = bf.check_A2(spec, f1.denominator, f1.numerator, f2.denominator, f2.numerator)[0]
            assert (res["r1"], res["r2"]) == (wit.r, wit.r2)
            assert (k % f1.denominator, m % f2.denominator) == (wit.r, wit.r2)
        elif tag == "SF-3":
            assert m % step == 0
            assert in_band(alpha_sf(spec, k * spec.omega1), kind)
        elif tag == "DF-2.1":
            assert m % res["q2"] == res["r2"]
            w_star = target.params["w_star"]
            assert w_star == pytest.approx(res["r2"] * res["p2"] / res["q2"] % 1.0, abs=1e-15)
            assert in_band(alpha_df(spec, k * spec.omega1, TWO_PI * w_star), kind)
        elif tag == "DF-3.1":
            assert circle_gap(s, target.params["s_star"]) <= seq.eps
            assert circle_gap(w, target.params["w_star"]) <= seq.eps
        elif tag == "DF-3.2":
            pq = relation(moduli, ("theta", "omega1", "theta_omega2", "one"), "theta_omega2")
            assert (k % pq["one"].denominator, m % pq["theta"].denominator) == (0, 0)
        elif tag == "SF-2":
            assert (k % (res["q"] * res["qp"] * step), m % step) == (0, 0)
        elif tag == "DF-2.2":
            assert (k % (res["q2"] * res["q3"]), m % res["q3"]) == (0, res["r2"])
        elif tag == "DF-3.3.1":
            pq = relation(moduli, ("omega1", "theta_omega2", "one"), "theta_omega2")
            assert k % (res["q2"] * pq["one"].denominator) == 0
        else:
            assert tag == "DF-3.3.2" and k % res["q2"] == 0


SEARCH_CASES = [(tag, doc, eps, kind) for tag, docs in SEARCHED.items() for doc in docs
                for eps in EPS for kind in arithmetic.CASES[bf.CaseTag(tag)].kinds]


@pytest.mark.parametrize("tag,doc,eps,kind", SEARCH_CASES)
def test_search_keeps_lattice_pairs(tag, doc, eps, kind):
    spec, moduli = load(doc)
    assert bf.classify_case(moduli, spec) is bf.CaseTag(tag)
    seq = search(doc, eps, kind)
    if seq is None:
        assert not math.isinf(eps)  # an unbounded search always keeps a pair
        return
    assert len(set(seq.pairs)) == len(seq.pairs) >= 1
    assert list(seq.pairs) == sorted(seq.pairs)
    assert_on_lattice(tag, spec, moduli, seq, kind)
    for (k, m), a, b, dist in zip(seq.pairs, seq.A_values, seq.B_values, seq.distances):
        rc = bf.coeffs(spec, k, m)
        assert rc.admissible and (rc.A_km, rc.B_km) == (a, b)
        assert abs(b) <= eps or tag not in B_BOUNDED
        assert dist <= eps or tag not in TORUS_BOUNDED
        assert abs(a) > 1.0 or tag not in LINE


@pytest.mark.parametrize("tag,doc,kind", sorted({c[:2] + c[3:] for c in SEARCH_CASES}))
def test_unbounded_search_keeps_the_first_pair(tag, doc, kind):
    # a bounded search keeps a subset of the unbounded one's candidates
    first = search(doc, math.inf, kind)
    assert len(first.pairs) == 1
    for eps in EPS[:2]:
        bounded = search(doc, eps, kind)
        if bounded is not None:
            assert first.pairs[0] <= bounded.pairs[0]


@pytest.mark.parametrize("doc,kind", [("sf_1_0", None), ("sf_3_1", "cu"), ("sf_2_2", "cu"),
                                      ("df_1_0", None), ("df_3_3_1_1", "cu")])
def test_unbounded_search_stops_at_min_pairs(doc, kind):
    # eps = inf keeps the first max(min_pairs, 1) distinct pairs in (k, m)
    # order of those that a search bounding nothing keeps, evaluating them all
    three = search(doc, math.inf, kind, min_pairs=3)
    assert three.pairs == search(doc, 1e300, kind).pairs[:3]
    assert three.pairs[:1] == search(doc, math.inf, kind).pairs


def test_unbounded_sf3_search_keeps_its_side():
    cs = search("sf_3_0", math.inf, "cs")
    cu = search("sf_3_0", math.inf, "cu")
    assert abs(cs.A_values[0]) < 1.0 < abs(cu.A_values[0])


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

#: the searches of the `tests/data/` documents at eps 1e-3 and 1e-2, over
#: every kind their case yields, whose pairs certify
CERTIFYING = (
    ("sf_1_0", 1e-2, None), ("sf_1_1", 1e-2, None), ("sf_2_0", 1e-2, "cu"),
    ("sf_3_0", 1e-3, "cs"), ("sf_3_0", 1e-3, "cu"), ("sf_3_0", 1e-2, "cs"),
    ("sf_3_0", 1e-2, "cu"), ("sf_3_1", 1e-3, "cu"), ("sf_3_1", 1e-2, "cs"),
    ("sf_3_1", 1e-2, "cu"), ("df_2_1_1", 1e-2, "cu"),
)


def with_maps(seq, a_values, b_values):
    return replace(seq, A_values=tuple(a_values), B_values=tuple(b_values))


def certify_or_none(spec, seq, **kw):
    try:
        return bf.certify(spec, seq, **kw)
    except (bf.CoverageGap, bf.BandViolation):
        return None


def witness_maps(seq, cert):
    return [(seq.A_values[w.n], seq.B_values[w.n]) for w in cert.witness]


def has_twin_images(cert):
    """Whether two distinct maps of the certificate give the same image of
    the symmetric I, so that `chain_cover`'s tie-break by index picks one."""
    alpha, beta = cert.effective_maps()
    images = {(abs(al), be) for al, be in zip(alpha.tolist(), beta.tolist())}
    return len(images) < len(set(zip(cert.A_values, cert.B_values)))


def assert_certify_properties(spec, seq):
    cert = certify_or_none(spec, seq)
    a, b = seq.A_values, seq.B_values
    n = len(a)

    # order: a permutation gives the same certificate, up to which of two
    # maps with the same image of I the witness names
    perm = [(7 * i + 3) % n for i in range(n)] if n % 7 else list(reversed(range(n)))
    shuffled = with_maps(seq, [a[i] for i in perm], [b[i] for i in perm])
    again = certify_or_none(spec, shuffled)
    assert (again is None) == (cert is None)
    if cert is not None:
        assert (again.c, again.A_band, again.overlap_min) == (cert.c, cert.A_band, cert.overlap_min)
        assert [w.interval for w in again.witness] == [w.interval for w in cert.witness]
        if not has_twin_images(cert):
            assert witness_maps(shuffled, again) == witness_maps(seq, cert)
        assert bf.recheck_witness(again)

    # monotone: more pairs keep a certificate and never shrink c, at the
    # default overlap and at a fixed one
    half = with_maps(seq, a[::2], b[::2])
    part = certify_or_none(spec, half)
    if part is not None:
        assert cert is not None and cert.c >= part.c
    overlap = cert.overlap_min if cert is not None else 0.01 * spec.c_frac * spec.delta
    part = certify_or_none(spec, half, overlap_min=overlap)
    if part is not None:
        full = certify_or_none(spec, seq, overlap_min=overlap)
        assert full is not None and full.c >= part.c
        assert certify_or_none(spec, seq, overlap_min=overlap, c=part.c) is not None

    # conjugacies: x -> lam*x and x -> -x carry the certificate over
    for lam in (0.5, 3.0, -1.0):
        image = certify_or_none(replace(spec, delta=abs(lam) * spec.delta),
                                with_maps(seq, a, [lam * v for v in b]))
        assert (image is None) == (cert is None)
        if cert is not None:
            assert image.c == pytest.approx(cert.c, rel=1e-9)
            assert image.overlap_min == pytest.approx(abs(lam) * cert.overlap_min, rel=1e-9)
            assert (image.blender_kind, image.A_band) == (cert.blender_kind, cert.A_band)
            assert bf.recheck_witness(image)

    # survival: every simulated disc survives
    if cert is not None:
        assert bf.simulate_covering(spec, cert, n_discs=25, seed=n, depth=15).all_ok
    return cert


@pytest.mark.parametrize("doc,eps,kind", CERTIFYING)
def test_certify_properties_on_searched_pairs(doc, eps, kind):
    spec, _ = load(doc)
    assert assert_certify_properties(spec, search(doc, eps, kind)) is not None


def synthetic(a_values, b_values):
    n = len(a_values)
    return PairSequence(
        pairs=tuple((i + 1, 1) for i in range(n)),
        target_values=((0.0, 0.0, 0.0),) * n,
        A_values=tuple(a_values),
        B_values=tuple(b_values),
        case=bf.CaseTag.SF_1,
    )


@st.composite
def pair_sets(draw):
    """Rows (64|A|, sign of A, 400 B/delta): |A| in one band on a grid of
    1/64, B on a grid of delta/400, so that equal images repeat exactly."""
    lo, hi = draw(st.sampled_from([(13, 54), (70, 320)]))
    row = st.tuples(st.integers(lo, hi), st.booleans(), st.integers(-30, 30))
    return draw(st.lists(row, min_size=3, max_size=14))


@settings(max_examples=25)
@given(pair_sets())
@example([(13, False, 0), (21, False, -8), (50, False, 3), (50, True, 3)])
def test_certify_properties_on_generated_pairs(rows):
    spec = sf_spec(delta=0.1)
    a = [(-1.0 if neg else 1.0) * num / 64 for num, neg, _ in rows]
    b = [j * spec.delta / 400 for _, _, j in rows]
    assert_certify_properties(spec, synthetic(a, b))
