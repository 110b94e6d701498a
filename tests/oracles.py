"""Independent oracles for the test suite.

Each oracle recomputes an expected value through a route disjoint from the
implementation under test: numerical integration instead of the closed-form
leaf constant, literal integer enumeration instead of the sign analysis in
the homology decisions, the published two-annulus rule instead of interval
arithmetic, and a direct 2x2 affine solve instead of contraction iteration.
It also keeps the reference maps that tests invert the engine against (the
forward closed form of a spiral leaf, inverted by the leaf constant, and the
crossing model's inverse and sigma-conjugate) and the one-leaf sampler that
the shared-profile leaf sampler must reproduce float for float.
"""

from __future__ import annotations

import itertools
import math


def rk4_cotangent(x0: float, y0: float, x1: float, steps: int = 4000) -> float:
    """Integrate dy/dx = cot(pi x) from (x0, y0) to x1 with classical RK4."""
    h = (x1 - x0) / steps
    x, y = x0, y0

    def f(xv: float) -> float:
        return math.cos(math.pi * xv) / math.sin(math.pi * xv)

    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + h / 2)
        k3 = f(x + h / 2)
        k4 = f(x + h)
        y += (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
    return y


def leaf_y(annulus, c: float, x: float) -> float:
    """y-coordinate (mod 1) of the spiral leaf with constant c at abscissa x
    inside the annulus: y = c + (1/pi) ln|sin(pi x)|, at x - 1/2 for u."""
    lo, hi = annulus.interval()
    if not float(lo) < x < float(hi):
        raise ValueError("x outside the annulus interior")
    shift = 0.0 if annulus.foliation == "s" else 0.5
    return (c + math.log(abs(math.sin(math.pi * (x - shift)))) / math.pi) % 1.0


def sample_one_leaf(annulus, c: float, samples: int = 120,
                    margin: float = 0.02) -> list[list[tuple[float, float]]]:
    """The spiral leaf with constant c sampled alone, point by point, as
    polylines split where y wraps through 1 -> 0."""
    lo, hi = map(float, annulus.interval())
    xs = [lo + margin + (hi - lo - 2 * margin) * t / (samples - 1)
          for t in range(samples)]
    shift = 0.0 if annulus.foliation == "s" else 0.5
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    prev_raw = None
    for x in xs:
        raw = c + math.log(abs(math.sin(math.pi * (x - shift)))) / math.pi
        if prev_raw is not None and math.floor(raw) != math.floor(prev_raw):
            boundary = float(max(math.floor(raw), math.floor(prev_raw)))
            t = (boundary - prev_raw) / (raw - prev_raw)
            xw = current[-1][0] + t * (x - current[-1][0])
            upper = 1.0 if raw > prev_raw else 0.0
            current.append((xw, upper))
            segments.append(current)
            current = [(xw, 1.0 - upper)]
        current.append((x, raw % 1.0))
        prev_raw = raw
    if current:
        segments.append(current)
    return segments


def pattern_rule(m: int, i: int, j: int) -> frozenset[int]:
    """The published gluing pattern: {j-1, j} for i <= 2m, else {j, j+1}."""
    c = 2 * i + 2
    if i <= 2 * m:
        return frozenset({(j - 1) % c, j % c})
    return frozenset({j % c, (j + 1) % c})


def _alpha_entry(j: int, torus: int) -> int:
    return 1 if torus in (2 * j - 1, 2 * j) else 0


def _forced_components(omega, sign: int, k: int, s, torus: int) -> int:
    corr = sum(k * sj * _alpha_entry(jj, torus) for jj, sj in enumerate(s, start=1))
    return -omega[torus - 1] + sign * corr


def brute_force_two_new(n: int, k: int, omega1, omega3, s1, s2,
                        sign1: int = -1, sign2: int = 1) -> str:
    """Componentwise integer enumeration of candidate middle-corner classes.

    The two defining equalities constrain each torus separately, so a
    candidate exists iff for every torus some x in [0, B] satisfies both;
    B bounds any solution by the triangle inequality on the inputs.
    """
    bound = max(
        10,
        max(abs(v) for v in omega1) + abs(k) * sum(s1),
        max(abs(v) for v in omega3) + abs(k) * sum(s2),
    )
    for torus in range(1, 4 * n + 1):
        v1 = _forced_components(omega1, sign1, k, s1, torus)
        v2 = _forced_components(omega3, sign2, k, s2, torus)
        if not any(x == v1 and x == v2 for x in range(bound + 1)):
            return "Forbidden"
    return "Consistent"


def brute_force_two_new_full_box(n: int, k: int, omega1, omega3, s1, s2,
                                 sign1: int = -1, sign2: int = 1) -> str:
    """Literal box enumeration of whole candidate vectors (small n only)."""
    bound = max(
        10,
        max(abs(v) for v in omega1) + abs(k) * sum(s1),
        max(abs(v) for v in omega3) + abs(k) * sum(s2),
    )
    tori = range(1, 4 * n + 1)
    v1 = [_forced_components(omega1, sign1, k, s1, t) for t in tori]
    v2 = [_forced_components(omega3, sign2, k, s2, t) for t in tori]
    for cand in itertools.product(range(bound + 1), repeat=4 * n):
        if list(cand) == v1 and list(cand) == v2:
            return "Consistent"
    return "Forbidden"


def brute_force_bridge(n: int, k: int, s, sign: int = 1) -> str:
    """Check [omega1] = [omega2] +/- k sum s_j [alpha_j] with vanishing old classes."""
    for torus in range(1, 4 * n + 1):
        rhs = sum(sign * k * sj * _alpha_entry(jj, torus)
                  for jj, sj in enumerate(s, start=1))
        if rhs != 0:
            return "Forbidden"
    return "Consistent"


def affine_fixed_point(model, j: int) -> tuple[float, float]:
    """Closed-form solution of the squared return map's 2x2 affine system."""
    t1, t2 = 2 * j - 1, 2 * j
    mu = model.mu
    s1, s2 = model.s_off(t1), model.s_off(t2)
    u1, u2 = model.u_off(t1), model.u_off(t2)
    a_const = s2 + s1 / mu
    b_const = u2 + mu * u1
    a_star = a_const / (1 - 1 / mu ** 2)
    b_star = b_const / (1 - mu ** 2)
    return a_star, b_star


def theta_inverse(model, t: int, p: tuple[float, float]) -> tuple[float, float]:
    """Inverse of model.theta(t, .): the crossing map back into the strip on torus t."""
    a, b = p
    return ((a - model.s_off(t)) * model.mu, (b - model.u_off(t)) / model.mu)


def sigma_conjugate(model, t: int, p: tuple[float, float]) -> tuple[float, float]:
    """sigma . Theta_t . sigma, with sigma swapping the pair of leaf constants."""
    a, b = model.theta(t, (p[1], p[0]))
    return (b, a)
