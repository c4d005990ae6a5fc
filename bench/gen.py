"""Seeded inputs with known answers.

Every generator takes a ``numpy.random.Generator`` and returns the input
together with the answer the benchmark checks the program against: a
Kronecker structure assembled from known blocks, or a joint spectrum in
closed form.  Nothing here calls into ``pencillab``, so a fault in the
program cannot leak into the expected answers.

Structures use the program's conventions: ``jordan`` holds (size, lam)
for a block lam*I + N against I, whose determinant vanishes at -lam;
``col`` and ``row`` hold the minimal indices of the L_e and L_d^T blocks;
``nilpotent`` holds the sizes of the I against N blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from oracles import hull_contains_origin

# Jordan eigenvalues come from a well-separated palette, as in the
# program's own corpora, so that no seeded instance sits near a
# clustering decision.
PALETTE = tuple(0.7 * complex(re, im) for re in (-2, -1, 0, 1, 2) for im in (-2, -1, 0, 1, 2))


@dataclass
class Structure:
    """Kronecker canonical form as multisets of block parameters."""

    col: list = field(default_factory=list)
    row: list = field(default_factory=list)
    jordan: list = field(default_factory=list)
    nilpotent: list = field(default_factory=list)
    unit: float = 1.0  # eigenvalue scale: 1, or 1/c once B is scaled by c

    @property
    def shape(self) -> tuple[int, int]:
        rows = sum(self.col) + sum(d + 1 for d in self.row)
        cols = sum(e + 1 for e in self.col) + sum(self.row)
        regular = sum(s for s, _ in self.jordan) + sum(self.nilpotent)
        return rows + regular, cols + regular

    def scaled(self, c: float) -> "Structure":
        """Structure of (A, c B): every finite eigenvalue divided by c."""
        return Structure(list(self.col), list(self.row),
                         [(s, lam / c) for s, lam in self.jordan], list(self.nilpotent),
                         self.unit / c)


def _blocks(s: Structure):
    for d in s.row:
        a = np.zeros((d + 1, d))
        b = np.zeros((d + 1, d))
        a[1:, :] = np.eye(d)
        b[:-1, :] = np.eye(d)
        yield a, b
    for e in s.col:
        a = np.zeros((e, e + 1))
        b = np.zeros((e, e + 1))
        a[:, 1:] = np.eye(e)
        b[:, :-1] = np.eye(e)
        yield a, b
    for size, lam in s.jordan:
        yield lam * np.eye(size) + np.eye(size, k=1), np.eye(size)
    for size in s.nilpotent:
        yield np.eye(size), np.eye(size, k=1)


def assemble(s: Structure) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal canonical pencil of a structure."""
    rows, cols = s.shape
    a = np.zeros((rows, cols), dtype=complex)
    b = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for ba, bb in _blocks(s):
        h, w = ba.shape
        a[r:r + h, c:c + w] = ba
        b[r:r + h, c:c + w] = bb
        r += h
        c += w
    return a, b


def well_conditioned(n: int, rng: np.random.Generator, max_cond: float) -> np.ndarray:
    """Unitary times log-uniform diagonal times unitary; cond <= max_cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    half = np.log(max_cond) / 2.0
    return q1 @ (np.exp(rng.uniform(-half, half, n))[:, None] * q2)


def rotate(a, b, rng: np.random.Generator):
    """U A V, U B V for random unitaries U and V, with V = U* when A is square.

    Keeps the Kronecker structure and every singular value of A + lam B;
    for a square pencil also the joint spectrum of a commuting pair and
    the joint numerical range.  So it changes every matrix entry but not
    the work the program does on the pencil.
    """
    def unitary(n):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q

    m, n = a.shape
    u = unitary(m)
    v = u.conj().T if m == n else unitary(n)
    return u @ a @ v, u @ b @ v


def scramble(a, b, rng: np.random.Generator, max_cond: float = 100.0):
    """S (A + lam B) T for random well-conditioned S and T."""
    s = well_conditioned(a.shape[0], rng, max_cond)
    t = well_conditioned(a.shape[1], rng, max_cond)
    return s @ a @ t, s @ b @ t


def pencil_of(s: Structure, corpus: np.random.Generator, coords: np.random.Generator):
    """The canonical pencil of ``s`` scrambled with transforms from ``corpus``
    and then rotated into coordinates from ``coords``."""
    return rotate(*scramble(*assemble(s), corpus), coords)


def random_structure(rng: np.random.Generator, n: int, singular: bool,
                     extra_column: bool = False) -> Structure:
    """Square n x n structure (n x (n+1) with ``extra_column``).

    Singular structures hold at least one L_e (+) L_d^T pair; the rest is
    filled with Jordan blocks of size <= 3 on the palette (an eigenvalue
    is reused with probability 0.3, up to three dimensions) and nilpotent
    blocks of size <= 3.

    Draws whose canonical A is a multiple of B (only L_0 and L_0^T blocks
    and 1x1 Jordan blocks at one eigenvalue) are repeated: ``is_singular``
    calls such a singular pencil regular when one of its sample nodes
    falls on the eigenvalue, which happens for some seeds only.
    """
    while True:
        s = _draw_structure(rng, n, singular, extra_column)
        proportional = (
            not any(s.col) and not any(s.row) and not s.nilpotent
            and len({lam for _, lam in s.jordan}) == 1
            and all(size == 1 for size, _ in s.jordan)
        )
        if not proportional:
            return s


def _draw_structure(rng, n, singular, extra_column) -> Structure:
    s = Structure()
    budget = n
    if extra_column:
        e = int(rng.integers(0, 3))
        s.col.append(e)
        budget -= e
    if singular:
        for _ in range(1 + int(rng.integers(0, 1 + n // 12))):
            if budget < 1:
                break
            e = int(rng.integers(0, min(3, budget)))
            d = int(rng.integers(0, min(3, budget - e)))
            s.col.append(e)
            s.row.append(d)
            budget -= e + d + 1
    fresh = list(PALETTE)
    rng.shuffle(fresh)
    load: dict[complex, int] = {}
    while budget > 0:
        size = int(min(budget, rng.integers(1, 4)))
        if rng.random() < 0.2:
            s.nilpotent.append(size)
        else:
            reusable = [z for z in load if load[z] + size <= 3]
            if reusable and (not fresh or rng.random() < 0.3):
                lam = reusable[int(rng.integers(0, len(reusable)))]
            elif fresh:
                lam = fresh.pop()
            else:
                s.nilpotent.append(size)
                budget -= size
                continue
            load[lam] = load.get(lam, 0) + size
            s.jordan.append((size, lam))
        budget -= size
    return s


# ---------------------------------------------------------------------------
# commuting pairs with a closed-form joint spectrum


@dataclass
class JointPair:
    """A = X diag(z1) X^-1, B = X diag(z2) X^-1 with its joint eigenvalues.

    ``planted`` marks a pair with (z1_k, z2_k) = (0, 0) for one k.
    """

    a: np.ndarray
    b: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    planted: bool

    @property
    def joint_spectrum(self) -> list[tuple[complex, complex]]:
        """sigma_T(A, B) = {(z1_i, z2_i)}."""
        return [(complex(x), complex(y)) for x, y in zip(self.z1, self.z2)]

    def structure(self) -> Structure:
        """Kronecker form of A + lam B: one 1x1 block per joint eigenvalue,
        L_0 (+) L_0^T where both coordinates vanish."""
        s = Structure()
        for x, y in zip(self.z1, self.z2):
            if x == 0 and y == 0:
                s.col.append(0)
                s.row.append(0)
            else:
                s.jordan.append((1, complex(x / y)))
        return s


def rotate_pair(pair: JointPair, rng: np.random.Generator) -> JointPair:
    """The same pair in random unitary coordinates (see :func:`rotate`)."""
    return JointPair(*rotate(pair.a, pair.b, rng), pair.z1, pair.z2, pair.planted)


def _grid_points(rng: np.random.Generator, n: int, spacing: float) -> np.ndarray:
    side = int(np.ceil(np.sqrt(n))) + 2
    cells = rng.permutation(side * side)[:n]
    re, im = np.divmod(cells, side)
    jitter = rng.uniform(-0.15, 0.15, (2, n))
    return spacing * ((re - side / 2 + jitter[0]) + 1j * (im - side / 2 + jitter[1]))


def _separated(values, rel: float) -> bool:
    v = np.asarray(values)
    diff = np.abs(v[:, None] - v[None, :])
    scale = np.maximum(1.0, np.maximum(np.abs(v)[:, None], np.abs(v)[None, :]))
    np.fill_diagonal(diff, np.inf)
    return bool(np.all(diff >= rel * scale))


def _admissible(z1, z2, planted: bool) -> bool:
    """Keep every seeded pair away from the program's clustering decisions.

    Off the planted point both coordinates stay at least 0.05 in modulus
    (so an unplanted pair has invertible coefficients), the ratios z1/z2
    (the finite eigenvalues of A + lam B, up to sign) are bounded by 30
    and 0.05 apart relative to max(1, |ratio|), and the values of each
    coordinate are 1e-3 apart.
    """
    live = ~((z1 == 0) & (z2 == 0)) if planted else np.ones(z1.size, bool)
    if min(np.abs(z1[live]).min(), np.abs(z2[live]).min()) < 0.05:
        return False
    ratio = z1[live] / z2[live]
    return bool(
        np.abs(ratio).max() <= 30.0
        and _separated(ratio, 0.05)
        and _separated(z1, 1e-3)
        and _separated(z2, 1e-3)
    )


def commuting_pair(rng: np.random.Generator, n: int, planted: bool,
                   max_cond: float = 30.0, origin_in_hull: bool = False) -> JointPair:
    """Commuting pair p(M), q(M) of two quadratics in M = X diag(mu) X^-1.

    cond(X) <= ``max_cond``.  With ``planted`` p and q share the root
    mu_k, which puts (0, 0) in the joint spectrum and makes the pencil
    singular.  With ``origin_in_hull`` the draw is repeated until the
    origin is a convex combination of the joint eigenvalues with every
    weight at least 0.2/n.  Draws are repeated until :func:`_admissible`.
    """
    for _ in range(10_000):
        mu = _grid_points(rng, n, 0.6)
        k = int(rng.integers(0, n))
        roots = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
        if planted:
            roots[0] = roots[2] = mu[k]
        cp, cq = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        z1 = cp * (mu - roots[0]) * (mu - roots[1])
        z2 = cq * (mu - roots[2]) * (mu - roots[3])
        if planted:
            z1[k] = z2[k] = 0.0
        if not _admissible(z1, z2, planted):
            continue
        if origin_in_hull and not hull_contains_origin(z1, z2, min_weight=0.2 / n):
            continue
        x = well_conditioned(n, rng, max_cond)
        xinv = np.linalg.inv(x)
        return JointPair((x * z1) @ xinv, (x * z2) @ xinv, z1, z2, planted)
    raise RuntimeError(f"no admissible commuting pair of size {n} in 10000 draws")


def normal_pair(rng: np.random.Generator, n: int, origin_inside: bool) -> JointPair:
    """Doubly commuting pair U diag(z1) U*, U diag(z2) U* with U unitary.

    Inside: the joint eigenvalues are centred, so the origin is their
    centroid.  Outside: every Re z1 lies in [0.5, 1.5], so Re x*Ax >= 0.5
    for unit x and the hull misses the origin by at least 0.5.  Draws are
    repeated until :func:`_admissible`.
    """
    for _ in range(10_000):
        z1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if origin_inside:
            z1 -= z1.mean()
            z2 -= z2.mean()
        else:
            z1 = rng.uniform(0.5, 1.5, n) + 1j * rng.standard_normal(n)
        if not _admissible(z1, z2, False):
            continue
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        ud = u.conj().T
        return JointPair((u * z1) @ ud, (u * z2) @ ud, z1, z2, False)
    raise RuntimeError(f"no admissible normal pair of size {n} in 10000 draws")


def pencil_document(a, b) -> dict:
    """The pencil file format read by ``pencillab analyze``."""
    def matrix(m):
        return {"rows": m.shape[0], "cols": m.shape[1],
                "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}
    return {"a": matrix(a), "b": matrix(b)}


def guard_pencil(gap: float, seed: int):
    """Regular 6x6 pencil X diag(-lam) X^-1 + w I with two eigenvalues ``gap``
    apart relative to max(1, |lam|).

    These inputs are fixed (they do not depend on the workload seed):
    the program's distinct-point guard rejects them although the
    eigenvalues are simple.
    """
    rng = np.random.default_rng(seed)
    lam = np.array([0.5, 0.5 + gap, -1.0 + 0.5j, 1.5j, -2.0, 1.2 - 0.7j])
    x = well_conditioned(6, rng, 30.0)
    a = (x * -lam) @ np.linalg.inv(x)
    s = Structure(jordan=[(1, complex(-v)) for v in lam])
    return a, np.eye(6, dtype=complex), s
