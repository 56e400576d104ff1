"""Reference values computed without the code under test.

Counts come from closed forms and divisor-sum identities (and, at small
B, from enumerating points through the public catalog height and
integrality functions, which define the count), local densities
and Theta from geometric series and Euler-product identities derived from
the max-norm heights, archimedean integrals from composite Gauss-Legendre
rules on graded panels (the complex place through the J_0 reduction of
the angular integral).  Every quadrature reference is evaluated at two
resolutions and is only trusted when both agree.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np
from scipy.special import j0, zeta

TWO_PI = 2.0 * math.pi


class Unresolved(Exception):
    """A reference disagreed with itself across resolutions."""


# ---------------------------------------------------------------------------
# exact counts


def phi_upto(n: int) -> np.ndarray:
    """Euler phi(0..n) by a sieve."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def mobius_upto(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    is_comp = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if not is_comp[p]:
            is_comp[2 * p :: p] = True
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
    return mu


def icbrt(n: int) -> int:
    lo, hi = 0, 1
    while hi**3 <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**3 <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _floor_sum(n: int) -> int:
    """sum_{h=1}^{n} floor(n/h) by the hyperbola method."""
    r = math.isqrt(n)
    return 2 * sum(n // h for h in range(1, r + 1)) - r * r


def count_inf(model_id: str, B: int) -> int:
    """N(B) for S = {inf} from divisor-sum identities."""
    if B < 1:
        return 0
    if model_id == "E1":
        return 2 * B + 1
    if model_id == "E3":
        return (2 * math.isqrt(B) + 1) ** 2
    if model_id == "E2":
        T = math.isqrt(B)
        return 3 + 4 * int(phi_upto(T)[2:].sum()) if T >= 1 else 0
    if model_id == "E4":
        T = math.isqrt(B)
        ph = phi_upto(T)
        total = 3 * (2 * B + 1)
        for h in range(2, T + 1):
            total += 4 * int(ph[h]) * (2 * (B // (h * h)) + 1)
        return total
    if model_id == "E5":
        # (x, y) in Z^2 with max(1,|x|) max(1,|y|) <= B
        return 3 * (2 * B + 1) + 2 * (2 * (_floor_sum(B) - B) + (B - 1))
    if model_id == "E6":
        T = icbrt(B)
        mu = mobius_upto(T)
        total = 0
        for d in range(1, T + 1):
            if mu[d]:
                t = T // d
                total += int(mu[d]) * t * (2 * t + 1) ** 2
        return total
    raise KeyError(model_id)


def _s_units(primes, bound: int) -> list[int]:
    out = [1]
    for p in primes:
        out = [e * p**k for e in out for k in range(0, 64) if e * p**k <= bound]
    return sorted(out)


def _sint_heights(primes, H: int) -> np.ndarray:
    """c[h] = #{x in Z[1/S] : max(e, |m|) = h} for x = m/e in lowest
    terms, h <= H."""
    c = np.zeros(H + 1, dtype=np.int64)
    ms = np.arange(0, H + 1, dtype=np.int64)
    for e in _s_units(primes, H):
        ok = np.ones(H + 1, dtype=bool)
        for p in primes:
            if e % p == 0:
                ok &= ms % p != 0
        if e == 1:
            c[1] += 3
            c[2:] += 2
            continue
        c[e] += 2 * int(ok[1 : e + 1].sum())  # |m| <= e, m != 0 (m = 0 is not coprime to e)
        c[e + 1 :] += 2 * ok[e + 1 :]
    return c


def _rational_heights(H: int) -> np.ndarray:
    """c[h] = #{x in Q : max(|m|, n) = h}."""
    c = np.zeros(H + 1, dtype=np.int64)
    ph = phi_upto(H)
    c[1] = 3
    c[2:] = 4 * ph[2:]
    return c


def count_S(model_id: str, primes: list[int], B: int) -> int:
    """N(B) for S = {inf} + primes, by height-count convolutions."""
    if not primes:
        return count_inf(model_id, B)
    if B < 1:
        return 0
    if model_id in ("E2", "E6"):
        return count_inf(model_id, B)  # nothing removed: S plays no role
    if model_id == "E1":
        return int(_sint_heights(primes, B).sum())
    if model_id == "E5":
        c = _sint_heights(primes, B)
        C = np.cumsum(c)
        hs = np.arange(1, B + 1)
        return int((c[1:] * C[B // hs]).sum())
    if model_id == "E4":
        T = math.isqrt(B)
        cq = _rational_heights(T)
        C = np.cumsum(_sint_heights(primes, B))
        return int(sum(int(cq[h]) * int(C[B // (h * h)]) for h in range(1, T + 1)))
    if model_id == "E3":
        # common S-unit denominator F, numerators (a, b) not both divisible
        # by a prime of F; base height max(F, |a|, |b|) <= sqrt(B)
        T = math.isqrt(B)
        total = 0
        for F in _s_units(primes, T):
            supp = [p for p in primes if F % p == 0]
            for mask in range(1 << len(supp)):
                d = math.prod(p for i, p in enumerate(supp) if mask >> i & 1)
                total += (-1) ** bin(mask).count("1") * (2 * (T // d) + 1) ** 2
        return total
    raise KeyError(model_id)


def brute_count(model, S_primes: list[int], B: int) -> int:
    """N(B) by enumerating candidate points and evaluating the public
    catalog height and integrality functions (small B only)."""
    from itertools import product

    from heightzeta.localfield import Place

    fracs = sorted({Fraction(m, n) for n in range(1, B + 1) for m in range(-B, B + 1)})
    total = 0
    for pt in product(fracs, repeat=model.dim):
        dens = set()
        for c in pt:
            d = c.denominator
            f = 2
            while f * f <= d:
                while d % f == 0:
                    dens.add(f)
                    d //= f
                f += 1
            if d > 1:
                dens.add(d)
        if any(p not in S_primes and not model.is_integral(Place.finite(p), pt) for p in dens):
            continue
        if model.height_base(pt) <= B:
            total += 1
    return total


# ---------------------------------------------------------------------------
# local densities at finite places (max-norm heights, geometric series)

# blocks of coordinates sharing one max-norm: (dimension, lambda, removed)
BLOCKS = {
    "E1": [(1, 1, True)],
    "E2": [(1, 2, False)],
    "E3": [(2, 2, True)],
    "E4": [(1, 2, False), (1, 1, True)],
    "E5": [(1, 1, True), (1, 1, True)],
    "E6": [(2, 3, False)],
}


def _vp(x: Fraction, p: int) -> int | None:
    if x == 0:
        return None
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _block_transform(p: int, dim: int, t: complex, vals: list[int | None]) -> complex:
    """int_{Q_p^dim} max(1, |x|)^{-t} psi(<a, x>) dx with v_p(a_i) = vals."""
    finite = [v for v in vals if v is not None]
    if finite and min(finite) < 0:
        return 0j
    lnp = math.log(p)
    if not finite:
        r = cmath.exp((dim - t) * lnp)
        return 1.0 + (1.0 - p ** (-dim)) * r / (1.0 - r)
    V = min(finite)
    total = 1.0 + 0j
    for k in range(1, V + 1):
        total += cmath.exp(-k * t * lnp) * (p ** (k * dim) - p ** ((k - 1) * dim))
    total -= cmath.exp(-(V + 1) * t * lnp) * p ** (V * dim)
    return total


def local_density(model_id: str, p: int, s0: complex, a=None, restrict: bool = True) -> complex:
    """H^_p(a; s0 lambda) over Z_p-integral points (restrict) or Q_p^n."""
    a = tuple(Fraction(0) for _ in range(sum(b[0] for b in BLOCKS[model_id]))) if a is None else tuple(map(Fraction, a))
    out = 1.0 + 0j
    i = 0
    for dim, lam, removed in BLOCKS[model_id]:
        vals = [_vp(t, p) for t in a[i : i + dim]]
        i += dim
        if removed and restrict:
            if any(v is not None and v < 0 for v in vals):
                return 0j
            continue
        out *= _block_transform(p, dim, lam * complex(s0), vals)
    return out


def char_bound(model_id: str, p: int, a, s0: complex) -> float:
    val = local_density(model_id, p, s0, a)
    i = 0
    for dim, lam, removed in BLOCKS[model_id]:
        if not removed and all(Fraction(t) == 0 for t in a[i : i + dim]):
            # rho = lambda for kept components
            val *= 1.0 - cmath.exp(-(1.0 + lam * complex(s0) - lam) * math.log(p))
        i += dim
    return abs(1.0 - val)


def theta_closed(model_id: str, primes: list[int]) -> tuple[float, int]:
    """(Theta, b) from the pole orders of the local factors at s = 1."""
    k = len(primes)
    lp = [math.log(p) for p in primes]
    if model_id == "E1":
        b, c = 1 + k, 2.0 * math.prod((1 - 1 / p) / l for p, l in zip(primes, lp))
    elif model_id == "E2":
        b, c = 1, 12.0 / math.pi**2
    elif model_id == "E3":
        b, c = 1 + k, 4.0 * math.prod((1 - p**-2) / (2 * l) for p, l in zip(primes, lp))
    elif model_id == "E4":
        b, c = 2 + k, (24.0 / math.pi**2) * math.prod((1 - 1 / p) / l for p, l in zip(primes, lp))
    elif model_id == "E5":
        b, c = 2 + 2 * k, 4.0 * math.prod(((1 - 1 / p) / l) ** 2 for p, l in zip(primes, lp))
    elif model_id == "E6":
        b, c = 1, 4.0 / float(zeta(3.0))
    else:
        raise KeyError(model_id)
    return c / math.factorial(b - 1), b


# ---------------------------------------------------------------------------
# archimedean integrals: composite Gauss-Legendre on graded panels


@functools.lru_cache(maxsize=None)
def _gl(n: int):
    return np.polynomial.legendre.leggauss(n)


def bump(x, center: float = 0.0, radius: float = 1.0):
    """The standard bump amp * exp(1 - 1/(1 - (x-c)^2/r^2)) on |x-c| < r
    (amplitude 1), vectorized and valid for complex x near the centre."""
    u = np.asarray(x) - center
    w = 1.0 - u * u / (radius * radius)
    inside = np.abs(u) < radius if not np.iscomplexobj(u) else np.ones(u.shape, bool)
    out = np.zeros(np.shape(u), dtype=np.result_type(u, float))
    out[inside] = np.exp(1.0 - 1.0 / w[inside])
    return out


def _panel_nodes(breaks, n: int):
    x, w = _gl(n)
    a, b = np.asarray(breaks[:-1]), np.asarray(breaks[1:])
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


_LEVELS = 48  # graded panels down to R 2^-48; the rest is a closed-form head


def _osc_breaks(R: float, rate, per_panel: float) -> np.ndarray:
    """Breakpoints on [R 2^-48, R], graded towards 0 and cut further so
    that the phase advances at most per_panel radians per panel and no
    panel is wider than R / (32 / per_panel)."""
    edges = R * 2.0 ** -np.arange(_LEVELS, -1, -1)
    out = [edges[:1]]
    for a, b in zip(edges[:-1], edges[1:]):
        m = 1 + int(math.ceil((rate(a, b) + 32.0 * (b - a) / R) / per_panel))
        out.append(np.linspace(a, b, m + 1)[1:])
    return np.concatenate(out)


def _two_res(fn, tol: float):
    coarse, fine = fn(16, 6.0), fn(24, 3.0)
    scale = max(abs(fine), 1e-300)
    if abs(coarse - fine) > tol * scale + 1e-300:
        raise Unresolved(f"reference unresolved: {coarse!r} vs {fine!r}")
    return fine


def _halfline(g, R: float, A: float, d: int, s: complex, n: int, per: float) -> complex:
    """int_0^R r^{s-1} e^{-2 pi i A r^d} g(r) dr, g vectorized."""
    rate = lambda a, b: TWO_PI * abs(A) * (b**d - a**d)
    nodes, wts = _panel_nodes(_osc_breaks(R, rate, per), n)
    vals = nodes ** (s - 1.0) * np.exp(-2j * math.pi * A * nodes**d) * g(nodes)
    head = R * 2.0**-_LEVELS
    return complex(np.sum(wts * vals)) + complex(g(np.array([0.0]))[0]) * head**s / s


def osc_real(center: float, radius: float, a: float, d: int, s: complex, tol: float = 1e-9) -> complex:
    """int_R |x|^{s-1} e^{-2 pi i a x^d} phi(x) dx for the standard bump."""
    lo, hi = center - radius, center + radius

    def fn(n, per):
        out = 0j
        if hi > 0:
            out += _halfline(lambda r: bump(r, center, radius), hi, a, d, s, n, per)
        if lo < 0:
            out += _halfline(lambda r: bump(-r, center, radius), -lo, a * (-1) ** d, d, s, n, per)
        return out

    return _two_res(fn, tol)


def osc_complex(radius: float, a: complex, d: int, s: complex, tol: float = 1e-9) -> complex:
    """int_C |z|^{s-1} psi(a z^d) Phi(z) dz for a radial bump, through
    int_0^{2 pi} e^{-i X cos(d theta + alpha)} dtheta = 2 pi J_0(X)."""
    om = abs(complex(a))

    def fn(n, per):
        rate = lambda lo, hi: 4.0 * math.pi * om * (hi**d - lo**d)
        nodes, wts = _panel_nodes(_osc_breaks(radius, rate, per), n)
        vals = 2.0 * bump(nodes, 0.0, radius) * nodes ** (2.0 * s - 1.0) * TWO_PI * j0(4.0 * math.pi * om * nodes**d)
        head = radius * 2.0**-_LEVELS
        return complex(np.sum(wts * vals)) + 2.0 * TWO_PI * bump(np.array([0.0]), 0.0, radius)[0] * head ** (2.0 * s) / (2.0 * s)

    return _two_res(fn, tol)


def _signed_nodes(bb, rate, n: int, per: float):
    """Nodes and weights of the graded rule on both sides of 0 over the
    support (c - r, c + r), with the closed-form heads dropped."""
    c, r = bb
    xs, ws = [], []
    for sg, R in ((1.0, c + r), (-1.0, r - c)):
        if R > 0:
            nd, wt = _panel_nodes(_osc_breaks(R, rate, per), n)
            xs.append(sg * nd)
            ws.append(wt)
    return np.concatenate(xs), np.concatenate(ws)


def osc_real_2d(b1, b2, a: float, d: tuple, s: tuple, tol: float = 1e-8) -> complex:
    """int int |x|^{s1-1} |y|^{s2-1} e^{-2 pi i a x^d1 y^d2} phi1(x) phi2(y)
    for standard bumps b = (center, radius), as a tensor rule; Re s_j >= 1
    keeps the dropped heads below 1e-14."""
    xmax = max(abs(b1[0]) + b1[1], 1e-300)
    ymax = max(abs(b2[0]) + b2[1], 1e-300)

    def fn(n, per):
        rx = lambda lo, hi: TWO_PI * abs(a) * ymax ** d[1] * (hi ** d[0] - lo ** d[0])
        ry = lambda lo, hi: TWO_PI * abs(a) * xmax ** d[0] * (hi ** d[1] - lo ** d[1])
        x, wx = _signed_nodes(b1, rx, n, per)
        y, wy = _signed_nodes(b2, ry, n, per)
        fx = wx * np.abs(x) ** (s[0] - 1.0) * bump(x, *b1)
        fy = wy * np.abs(y) ** (s[1] - 1.0) * bump(y, *b2)
        xd = x ** d[0]
        total = 0j
        for k in range(0, len(y), 64):
            ph = np.exp(np.outer(-2j * math.pi * a * y[k : k + 64] ** d[1], xd))
            total += complex(fy[k : k + 64] @ (ph @ fx))
        return total

    return _two_res(fn, tol)


def _rotated_tail(g, T: float, omega: float, n: int, per: float) -> complex:
    """int_T^inf g(t) e^{-i omega t} dt for g analytic and decaying in the
    half plane towards which the contour t = T - i sign(omega) tau turns."""
    sg = 1.0 if omega > 0 else -1.0
    L = 60.0 / abs(omega)
    breaks = np.concatenate([[0.0], L * 2.0 ** -np.arange(30, -1, -1)])
    breaks = np.unique(np.concatenate([breaks, np.linspace(0.0, L, int(8 / per) + 2)]))
    tau, w = _panel_nodes(breaks, n)
    t = T - 1j * sg * tau
    return complex(-1j * sg * np.exp(-1j * omega * T) * np.sum(w * g(t) * np.exp(-abs(omega) * tau)))


def inverse_real(radius: float, a: float, d: int, s: complex, tol: float = 1e-8) -> complex:
    """int_R |x|^{s-1} psi(a / x^d) phi(x) dx for the centred standard bump,
    with t = |x|^{-d}; the far oscillatory tail is taken on a rotated
    contour."""

    def fn(n, per):
        total = 0j
        for A in (a, a * (-1) ** d):
            g = lambda t: (1.0 / d) * t ** (-s / d - 1.0) * bump(t ** (-1.0 / d), 0.0, radius)
            t0 = radius ** (-d)
            T = t0 + 40.0
            om = TWO_PI * A
            breaks = np.linspace(t0, T, 1 + int(math.ceil(abs(om) * (T - t0) / per)) + 400)
            nodes, wts = _panel_nodes(breaks, n)
            total += complex(np.sum(wts * g(nodes) * np.exp(-1j * om * nodes)))
            total += _rotated_tail(g, T, om, n, per)
        return total

    return _two_res(fn, tol)


def _J(w: complex, beta: float, n: int, per: float) -> complex:
    """int_1^inf x^{-w} e^{i beta x} dx (beta != 0, Re w > 1 or oscillatory)."""
    return _rotated_tail(lambda x: x ** (-w), 1.0, -beta, n, per)


def max1d_transform(a: float, w: complex, tol: float = 1e-10) -> complex:
    """int_R max(1,|x|)^{-w} e^{-2 pi i a x} dx, a != 0."""
    b = TWO_PI * a

    def fn(n, per):
        return math.sin(b) / (math.pi * a) + _J(w, b, n, per) + _J(w, -b, n, per)

    return _two_res(fn, tol)


def joint_max_transform(a1: float, a2: float, w: complex, tol: float = 1e-10) -> complex:
    """int_R2 max(1,|x|,|y|)^{-w} e^{-2 pi i (a1 x + a2 y)} dx dy as
    F(1) + int_1^inf t^{-w} F'(t) dt with F the transform of the box."""
    b1, b2 = TWO_PI * a1, TWO_PI * a2

    def fn(n, per):
        def sin_int(power, gamma):  # int_1^inf t^{-power} sin(gamma t) dt
            if gamma == 0.0:
                return 0j
            return (_J(power, gamma, n, per) - _J(power, -gamma, n, per)) / 2j

        def cos_int(power, gamma):
            if gamma == 0.0:
                return 1.0 / (power - 1.0)
            return (_J(power, gamma, n, per) + _J(power, -gamma, n, per)) / 2.0

        if a1 != 0.0 and a2 != 0.0:
            F1 = math.sin(b1) * math.sin(b2) / (math.pi**2 * a1 * a2)
            sp, sm = b1 + b2, b1 - b2
            tail = (sin_int(w, sp) - sin_int(w, sm)) / (math.pi * a2) + (sin_int(w, sp) + sin_int(w, sm)) / (math.pi * a1)
            return F1 + tail
        b = b1 if a1 != 0.0 else b2
        a = a1 if a1 != 0.0 else a2
        # F(t) = 2t sin(b t)/(pi a): F' = 2 sin(b t)/(pi a) + 4 t cos(b t)
        F1 = 2.0 * math.sin(b) / (math.pi * a)
        return F1 + 2.0 * sin_int(w, b) / (math.pi * a) + 4.0 * cos_int(w - 1.0, b)

    return _two_res(fn, tol)


# ---------------------------------------------------------------------------
# p-adic oscillatory integrals by brute-force residue sums


def _unit_phase_sum(p: int, m: int, numer) -> complex:
    """p^-m sum over units u mod p^m of e^{2 pi i numer(u) / p^m}."""
    pm = p**m
    us = [u for u in range(1, pm) if u % p]
    ph = np.array([numer(u) % pm for u in us], dtype=float) / pm
    return complex(np.sum(np.exp(2j * math.pi * ph))) / pm


def padic_osc_1d(p: int, k: int, d: int, s: complex, units_only: bool = False) -> complex:
    """int_{Z_p} |x|^{s-1} psi(x^d / p^k) dx (or over Z_p^* only)."""
    lnp = math.log(p)
    total = 0j
    V0 = -(-k // d)
    for v in range(0, 1 if units_only else V0):
        m = k - v * d
        total += cmath.exp(-v * s * lnp) * _unit_phase_sum(p, m, lambda u: u**d)
    if units_only:
        return total if V0 > 0 else (1.0 - 1.0 / p)
    return total + (1.0 - 1.0 / p) * cmath.exp(-V0 * s * lnp) / (1.0 - cmath.exp(-s * lnp))


def padic_coset(p: int, xi: int, n: int, u: int, m: int, d: int) -> complex:
    """int_{xi + p^n Z_p} psi(u x^d / p^m) dx, enumerated one level deeper
    than needed."""
    M = max(n, m) + 1
    pm = p**m
    ys = [(xi + p**n * t) for t in range(p ** (M - n))]
    ph = np.array([(u * pow(y, d, pm)) % pm for y in ys], dtype=float) / pm
    return complex(np.sum(np.exp(2j * math.pi * ph))) / p**M


def padic_osc_2d(p: int, k: int, d: tuple, s: tuple) -> complex:
    """int_{Z_p^2} |x|^{s1-1} |y|^{s2-1} psi(x^d1 y^d2 / p^k) dx dy."""
    lnp = math.log(p)
    unit = (1.0 - 1.0 / p) ** 2
    total = unit / ((1.0 - cmath.exp(-s[0] * lnp)) * (1.0 - cmath.exp(-s[1] * lnp)))
    for v1 in range(0, k // d[0] + 1):
        for v2 in range(0, k // d[1] + 1):
            e = v1 * d[0] + v2 * d[1]
            if e >= k:
                continue
            m = k - e
            pm = p**m
            us = np.array([u for u in range(1, pm) if u % p], dtype=object)
            a1 = np.array([pow(int(u), d[0], pm) for u in us], dtype=np.int64)
            a2 = np.array([pow(int(u), d[1], pm) for u in us], dtype=np.int64)
            ph = (np.outer(a1, a2) % pm).astype(float) / pm
            U = complex(np.sum(np.exp(2j * math.pi * ph))) / pm**2
            total += cmath.exp(-(v1 * s[0] + v2 * s[1]) * lnp) * (U - unit)
    return total


def padic_inverse(p: int, c: int, j: int, d: int, s: complex, max_classes: int = 20000) -> complex:
    """int_{Z_p} |x|^{s-1} psi(c p^j / x^d) dx for a unit c; shells whose
    unit sums exceed max_classes must lie past two vanishing shells."""
    lnp = math.log(p)
    total = 0j
    v = 0
    zeros = 0
    while True:
        m = v * d - j
        if m <= 0:
            total += cmath.exp(-v * s * lnp) * (1.0 - 1.0 / p)
        else:
            if p**m > max_classes:
                if zeros >= 2:
                    return total
                raise Unresolved("inverse-phase reference needs deeper unit sums")
            pm = p**m
            U = _unit_phase_sum(p, m, lambda u: c * pow(u, -d, pm))
            zeros = zeros + 1 if abs(U) < 1e-13 else 0
            total += cmath.exp(-v * s * lnp) * U
        v += 1


# ---------------------------------------------------------------------------
# height-ball volumes (the closed forms summed over denominator profiles)


def _profile_volume(e: int, primes) -> int:
    """Volume of the finite-adelic denominator profile e: phi(e)."""
    out = e
    for p in primes:
        if e % p == 0:
            out = out // p * (p - 1)
    return out


def _lcm_profile(e1: int, e2: int, primes) -> int:
    F = 1
    for p in primes:
        k = max(_vp(Fraction(e1), p), _vp(Fraction(e2), p))
        F *= p**k
    return F


def volume(model_id: str, primes: list[int], B: int) -> float:
    """V(B): the adelic volume of the height ball H <= B."""
    Bf = float(B)
    if Bf < 1.0:
        return 0.0
    units = _s_units(primes, B)
    if model_id == "E1":
        return 2.0 * Bf * sum(_profile_volume(e, primes) / e for e in units)
    if model_id == "E2":
        T = math.sqrt(Bf)
        ph = phi_upto(int(T))[1:].astype(float)
        return 2.0 * T * float(np.sum(ph / np.arange(1, int(T) + 1)))
    if model_id == "E3":
        return sum(
            _profile_volume(e1, primes) * _profile_volume(e2, primes) * 4.0 * Bf / _lcm_profile(e1, e2, primes) ** 2
            for e1 in units
            for e2 in units
            if _lcm_profile(e1, e2, primes) ** 2 <= B
        )
    if model_id == "E4":
        T = int(math.sqrt(Bf))
        ph = phi_upto(T)
        total = 0.0
        for e in units:
            for d in range(1, T + 1):
                t = Bf / (d * d * e)
                if t >= 1.0:
                    total += ph[d] * _profile_volume(e, primes) * (8.0 * t - 4.0 * math.sqrt(t))
        return total
    if model_id == "E5":
        total = 0.0
        for e1 in units:
            for e2 in units:
                t = Bf / (e1 * e2)
                if t >= 1.0:
                    total += _profile_volume(e1, primes) * _profile_volume(e2, primes) * (4.0 * t + 4.0 * t * math.log(t))
        return total
    if model_id == "E6":
        T = icbrt(B)
        j2 = np.arange(T + 1, dtype=np.int64) ** 2  # Jordan totient J_2 by a sieve
        for p in range(2, T + 1):
            if j2[p] == p * p:
                j2[p::p] = j2[p::p] // (p * p) * (p * p - 1)
        d = np.arange(1, T + 1, dtype=float)
        t = Bf ** (1.0 / 3.0) / d
        keep = t >= 1.0
        return float(np.sum(j2[1:][keep] * 4.0 * t[keep] ** 2))
    raise KeyError(model_id)


def region_count(model_id: str, B: int) -> int:
    """Points of height <= B in the standard region: E3 in the open first
    quadrant, E5 with |x| <= |y|."""
    if model_id == "E3":
        return math.isqrt(B) ** 2
    if model_id == "E5":
        ax = np.arange(1, math.isqrt(B) + 1, dtype=np.int64)
        per = np.maximum(B // ax - ax + 1, 0)
        return int(2 * B + 1 + 4 * per.sum())
    raise KeyError(model_id)
