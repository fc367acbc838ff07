"""Seeded spec-document generator, one family per case tag.

Every document is the JSON a user would hand to the `blenderforge` CLI: a
`spec` block (the coefficient record) and a `moduli` block (the declared
arithmetic).  Parameter ranges follow the seeded generators of the test
suite (`tests/conftest.py`) and the paper's hypotheses: 0 < lambda < 1 <
|gamma|, angles inside (0, pi), sin(eta1 - eta2) away from 0, and for the
double focus gamma > 0 with a small delta.  Ranges are not narrowed to
avoid known failures; a spec the program cannot certify is a failed op.

A family's batch of n documents is drawn by Latin hypercube sampling: each
parameter of each document falls in its own 1/n-stratum of its range, the
strata assigned by a seeded permutation per parameter.  Each document on its own is
distributed exactly as with independent draws (rejection loops included);
across the batch the draws spread evenly, so the mix of outcomes varies less
from seed to seed.  A batch depends only on (seed, family, n), so a
family's documents do not change when another family's count does.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Sequence

TWO_PI = 2.0 * math.pi


class Draws:
    """Uniform draws for document `index` of a stratified batch.

    Every named draw has its own stratum permutation, so a parameter stays
    stratified however many draws come before it.  A rejection loop's first
    draw of a name is stratified and its retries are independent, so each
    document keeps exactly the distribution of independent draws."""

    def __init__(self, strata: "Strata", index: int) -> None:
        self.strata = strata
        self.index = index
        self.used: set[str] = set()
        self.jitter = random.Random(f"{strata.key}:{index}")

    def random(self, name: str) -> float:
        if name in self.used:
            return self.jitter.random()
        self.used.add(name)
        stratum = self.strata.permutation(name)[self.index]
        return (stratum + self.jitter.random()) / self.strata.n

    def uniform(self, name: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random(name)

    def randrange(self, name: str, lo: int, hi: int) -> int:
        return lo + int(self.random(name) * (hi - lo))

    def choice(self, name: str, seq: Sequence[Any]) -> Any:
        return seq[int(self.random(name) * len(seq))]


class Strata:
    """One seeded permutation of range(n) per draw name."""

    def __init__(self, key: str, n: int) -> None:
        self.key = key
        self.n = n
        self._perms: dict[str, list[int]] = {}

    def permutation(self, name: str) -> list[int]:
        if name not in self._perms:
            perm = list(range(self.n))
            random.Random(f"{self.key}:perm:{name}").shuffle(perm)
            self._perms[name] = perm
        return self._perms[name]


def _sign(rng: Draws, name: str) -> float:
    return rng.choice(name, (-1.0, 1.0))


def _reduced(rng: Draws, name: str, q_lo: int, q_hi: int) -> tuple[int, int]:
    """p/q in lowest terms with q in [q_lo, q_hi) and p/q < 1/2."""
    q = rng.randrange(f"{name}.q", q_lo, q_hi)
    p = rng.randrange(f"{name}.p", 1, q)
    while math.gcd(p, q) != 1 or 2 * p >= q:
        p = rng.randrange(f"{name}.p", 1, q)
    return p, q


def _etas(rng: Draws) -> tuple[float, float]:
    eta1 = rng.uniform("eta1", -1.2, 1.2)
    eta2 = rng.uniform("eta2", -1.2, 1.2)
    while abs(math.sin(eta1 - eta2)) < 0.1:
        eta2 = rng.uniform("eta2", -1.2, 1.2)
    return eta1, eta2


def _irrational_angle(rng: Draws, name: str) -> float:
    """A generic angle/2pi, declared irrational."""
    return rng.uniform(name, 0.05, 0.45)


def _line_relation(rng: Draws, name: str, w_hat: float, t_range: tuple[int, int],
                   lo: float, hi: float) -> tuple[int, int, int]:
    """Integers (t, r, s) with lo <= (r*w_hat + s)/t <= hi."""
    while True:
        # (t, r) as one uniform draw, so the batch stratifies the pair jointly
        tr = rng.randrange(f"{name}.tr", 0, 3 * (t_range[1] - t_range[0]))
        t, r = t_range[0] + tr // 3, 1 + tr % 3
        choices = [s for s in range(1, 31) if lo <= (r * w_hat + s) / t <= hi]
        if choices:
            return t, r, rng.choice(f"{name}.s", choices)


def _theta_relation(rng: Draws, w_hat: float) -> tuple[float, dict[str, int]]:
    """theta = (r*w_hat + s)/t with theta in [0.6, 2.0], and its declared
    integer relation t*theta - r*omega1 - s*one = 0."""
    t, r, s = _line_relation(rng, "theta_rel", w_hat, (2, 7), 0.6, 2.0)
    return (r * w_hat + s) / t, {"theta": t, "omega1": -r, "one": -s}


def _sf_spec(rng: Draws, theta: float, w_hat: float, delta: float = 0.1) -> dict[str, Any]:
    gamma = _sign(rng, "gamma.sign") * rng.uniform("gamma", 1.3, 3.0)
    eta1, eta2 = _etas(rng)
    return {
        "cycle_type": "saddle_focus",
        "lambda": abs(gamma) ** (-theta),
        "gamma": gamma,
        "omega1": TWO_PI * w_hat,
        "A_coef": rng.uniform("A", 0.5, 1.5),
        "B_coef": rng.uniform("B", 0.5, 1.5),
        "b_coef": _sign(rng, "b.sign") * rng.uniform("b", 0.5, 1.5),
        "u_minus": _sign(rng, "u.sign") * rng.uniform("u", 0.5, 1.5),
        "eta1": eta1,
        "eta2": eta2,
        "d": 4, "d1": 1, "d2": 2,
        "delta": delta,
        "c_frac": 0.5,
    }


def _df_spec(rng: Draws, theta: float, w1_hat: float, w2_hat: float,
             delta: float = 0.004) -> dict[str, Any]:
    gamma = rng.uniform("gamma", 1.3, 3.0)
    eta1, eta2 = _etas(rng)
    return {
        "cycle_type": "double_focus",
        "lambda": gamma ** (-theta),
        "gamma": gamma,
        "omega1": TWO_PI * w1_hat,
        "omega2": TWO_PI * w2_hat,
        "A_coef": rng.uniform("A", 0.5, 1.5),
        "B_coef": rng.uniform("B", 0.5, 1.5),
        "b_coef": _sign(rng, "b.sign") * rng.uniform("b", 0.4, 1.2),
        "u_minus": [rng.uniform("u1", 0.5, 1.5) * _sign(rng, "u1.sign"),
                    rng.uniform("u2", 0.2, 1.0) * _sign(rng, "u2.sign")],
        "eta1": eta1,
        "eta2": eta2,
        "eta3": rng.uniform("eta3", -0.6, 0.6),
        "d": 5, "d1": 2, "d2": 3,
        "delta": delta,
        "c_frac": 0.5,
    }


def _frac(p: int, q: int) -> dict[str, int]:
    return {"num": p, "den": q}


def _doc(spec: dict[str, Any], theta_class: Any, omega1_class: Any, omega2_class: Any = None,
         relations: list[dict[str, int]] | None = None,
         flags: dict[str, str] | None = None) -> dict[str, Any]:
    moduli: dict[str, Any] = {"theta_class": theta_class, "omega1_class": omega1_class}
    if omega2_class is not None:
        moduli["omega2_class"] = omega2_class
    if relations:
        moduli["relations"] = relations
    if flags:
        moduli["flags"] = flags
    return {"spec": spec, "moduli": moduli}


# -- residue-class lattice --------------------------------------------------

def sf_1(rng: Draws) -> dict[str, Any]:
    p, q = _reduced(rng, "omega1", 9, 15)
    theta = rng.uniform("theta", 0.6, 2.0)
    return _doc(_sf_spec(rng, theta, p / q), "irrational", _frac(p, q))


def df_1(rng: Draws) -> dict[str, Any]:
    p1, q1 = _reduced(rng, "omega1", 9, 14)
    p2, q2 = _reduced(rng, "omega2", 8, 12)
    theta = rng.uniform("theta", 0.6, 2.0)
    return _doc(_df_spec(rng, theta, p1 / q1, p2 / q2), "irrational", _frac(p1, q1), _frac(p2, q2))


# -- band scan over k ---------------------------------------------------------

def sf_3(rng: Draws) -> dict[str, Any]:
    theta = rng.uniform("theta", 0.6, 2.0)
    w = _irrational_angle(rng, "omega1")
    return _doc(_sf_spec(rng, theta, w), "irrational", "irrational",
                flags={"theta+omega1+one": "independent"})


def df_2_1(rng: Draws) -> dict[str, Any]:
    theta = rng.uniform("theta", 0.6, 2.0)
    w1 = _irrational_angle(rng, "omega1")
    p2, q2 = _reduced(rng, "omega2", 8, 12)
    return _doc(_df_spec(rng, theta, w1, p2 / q2), "irrational", "irrational", _frac(p2, q2),
                flags={"theta+omega1+one": "independent"})


# -- line-profile lattice -------------------------------------------------------

def sf_2(rng: Draws) -> dict[str, Any]:
    w = _irrational_angle(rng, "omega1")
    theta, rel = _theta_relation(rng, w)
    return _doc(_sf_spec(rng, theta, w), "irrational", "irrational", relations=[rel])


def df_2_2(rng: Draws) -> dict[str, Any]:
    w1 = _irrational_angle(rng, "omega1")
    theta, rel = _theta_relation(rng, w1)
    p2, q2 = _reduced(rng, "omega2", 8, 12)
    return _doc(_df_spec(rng, theta, w1, p2 / q2), "irrational", "irrational", _frac(p2, q2),
                relations=[rel])


def df_3_3_1(rng: Draws) -> dict[str, Any]:
    w1 = _irrational_angle(rng, "omega1")
    theta, rel = _theta_relation(rng, w1)
    # theta*w2 = (r*w1 + s)/t: w2 lies on a line in (w1, 1) as well
    t, r, s = _line_relation(rng, "omega2_rel", w1, (3, 31), 0.05 * theta, 0.45 * theta)
    w2 = (r * w1 + s) / t / theta
    return _doc(_df_spec(rng, theta, w1, w2), "irrational", "irrational", "irrational",
                relations=[rel, {"theta_omega2": t, "omega1": -r, "one": -s}])


def df_3_3_2(rng: Draws) -> dict[str, Any]:
    w1 = _irrational_angle(rng, "omega1")
    theta, rel = _theta_relation(rng, w1)
    w2 = _irrational_angle(rng, "omega2")
    return _doc(_df_spec(rng, theta, w1, w2), "irrational", "irrational", "irrational",
                relations=[rel], flags={"omega1+theta_omega2+one": "independent"})


# -- fully rational moduli ------------------------------------------------------

def _rational_theta(rng: Draws) -> tuple[int, int]:
    pp, qp = rng.randrange("theta.p", 1, 4), rng.randrange("theta.q", 1, 4)
    g = math.gcd(pp, qp)
    return pp // g, qp // g


def sf_rational_all(rng: Draws) -> dict[str, Any]:
    # delta is tiny so the cube-position freedom of the two-pair scan stays
    # inside the exclusion-distance margin, as in the test suite
    p, q = _reduced(rng, "omega1", 3, 7)
    pp, qp = _rational_theta(rng)
    return _doc(_sf_spec(rng, pp / qp, p / q, delta=5e-5), _frac(pp, qp), _frac(p, q))


def df_rational_all(rng: Draws) -> dict[str, Any]:
    p1, q1 = _reduced(rng, "omega1", 3, 7)
    p2, q2 = _reduced(rng, "omega2", 3, 7)
    pp, qp = _rational_theta(rng)
    return _doc(_df_spec(rng, pp / qp, p1 / q1, p2 / q2, delta=5e-5),
                _frac(pp, qp), _frac(p1, q1), _frac(p2, q2))


FAMILIES: dict[str, Callable[[Draws], dict[str, Any]]] = {
    "SF-1": sf_1,
    "SF-2": sf_2,
    "SF-3": sf_3,
    "DF-1": df_1,
    "DF-2.1": df_2_1,
    "DF-2.2": df_2_2,
    "DF-3.3.1": df_3_3_1,
    "DF-3.3.2": df_3_3_2,
    "SF-rational-all": sf_rational_all,
    "DF-rational-all": df_rational_all,
}


def generate(family: str, seed: int, n: int) -> list[dict[str, Any]]:
    """The seed's batch of n spec documents of a family."""
    strata = Strata(f"{seed}:{family}:{n}", n)
    return [FAMILIES[family](Draws(strata, i)) for i in range(n)]
