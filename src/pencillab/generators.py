"""Seeded corpus generators for campaigns and property suites."""

from __future__ import annotations

import numpy as np

from .commuting import construct_multiplier
from .kronecker import KroneckerStructure, assemble, scramble
from .pencil import Pencil

# Jordan eigenvalues come from a fixed well-separated palette so that
# clustering decisions never sit on a knife edge.
_EIGENVALUE_PALETTE = [
    complex(re, im) * 0.7
    for re in (-2, -1, 0, 1, 2)
    for im in (-2, -1, 0, 1, 2)
]


def random_structure(
    rng: np.random.Generator,
    max_size: int = 12,
    square: bool = False,
    ensure_singular: bool = False,
) -> KroneckerStructure:
    """Random Kronecker structure with max(rows, cols) <= max_size.

    With ``square`` the L and L^T blocks are drawn in pairs so the shape
    balances; ``ensure_singular`` forces at least one such pair.
    """
    col: list[int] = []
    row: list[int] = []
    jordan: list[tuple[int, complex]] = []
    nilpotent: list[int] = []

    def shape():
        s = KroneckerStructure(
            col_minimal=[(e, 1) for e in col],
            row_minimal=[(d, 1) for d in row],
            jordan=jordan,
            nilpotent=nilpotent,
        )
        return s.rows, s.cols

    def fits(extra_rows, extra_cols):
        r, c = shape()
        return max(r + extra_rows, c + extra_cols) <= max_size

    if ensure_singular:
        e = int(rng.integers(0, 3))
        d = int(rng.integers(0, 3))
        col.append(e)
        row.append(d)

    palette = list(_EIGENVALUE_PALETTE)
    rng.shuffle(palette)
    used_eigs: list[complex] = []
    eig_load: dict[complex, int] = {}
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.choice(
            ["pair", "jordan", "nilpotent"] if square else
            ["L", "L_transpose", "pair", "jordan", "nilpotent"]
        )
        if kind == "L":
            e = int(rng.integers(0, 4))
            if fits(e, e + 1):
                col.append(e)
        elif kind == "L_transpose":
            d = int(rng.integers(0, 4))
            if fits(d + 1, d):
                row.append(d)
        elif kind == "pair":
            e = int(rng.integers(0, 3))
            d = int(rng.integers(0, 3))
            if fits(e + d + 1, e + d + 1):
                col.append(e)
                row.append(d)
        elif kind == "jordan":
            size = int(rng.integers(1, 4))
            if fits(size, size):
                # total multiplicity per eigenvalue stays small: the QZ
                # split of an m-fold eigenvalue grows like eps**(1/m)
                reusable = [
                    lam for lam in used_eigs if eig_load.get(lam, 0) + size <= 4
                ]
                if reusable and rng.random() < 0.3:
                    lam = reusable[int(rng.integers(0, len(reusable)))]
                else:
                    lam = palette[len(used_eigs) % len(palette)]
                    used_eigs.append(lam)
                eig_load[lam] = eig_load.get(lam, 0) + size
                jordan.append((size, lam))
        else:
            size = int(rng.integers(1, 4))
            if fits(size, size):
                nilpotent.append(size)
    return KroneckerStructure(
        col_minimal=[(e, 1) for e in col],
        row_minimal=[(d, 1) for d in row],
        jordan=jordan,
        nilpotent=nilpotent,
    )


def random_singular_pencil(
    rng: np.random.Generator,
    max_size: int = 12,
) -> tuple[Pencil, KroneckerStructure]:
    """Scrambled square singular pencil together with its generating structure."""
    structure = random_structure(rng, max_size=max_size, square=True, ensure_singular=True)
    seed = int(rng.integers(0, 2**63 - 1))
    pencil, _ = scramble(assemble(structure), seed, max_cond=100.0)
    return pencil, structure


def _random_polynomial_pair(rng: np.random.Generator, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = m.shape[0]
    out = []
    for _ in range(2):
        degree = int(rng.integers(1, 4))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        acc = coeffs[0] * np.eye(n, dtype=complex)
        power = np.eye(n, dtype=complex)
        for c in coeffs[1:]:
            power = power @ m
            acc = acc + c * power
        out.append(acc)
    return out[0], out[1]


DEFAULT_COMMUTING_KINDS = ("poly", "poly-singular", "blockdiag", "zero-block")

# Generators whose pencils keep a numerically recoverable Kronecker
# structure.  poly-singular pairs concentrate the whole regular part on one
# highly defective eigenvalue, which the staircase cannot always resolve: on
# draws from default_rng(3) it resolved 295 of 300 at n <= 10 (three raised
# in the column compressions, two in the chain stage), 61 of 100 at n <= 24
# and 16 of 40 at n <= 40.  Structure-recovery campaigns use this mix instead.
STAIRCASE_SAFE_KINDS = ("poly", "blockdiag", "zero-block", "structured")


def random_commuting_pair(
    rng: np.random.Generator,
    max_n: int = 10,
    kind: str | None = None,
    kinds: tuple[str, ...] = DEFAULT_COMMUTING_KINDS,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded commuting pair from one of several constructions.

    Kinds: "poly" (two polynomials in one dense matrix), "poly-singular"
    (nilpotent base and zero constant terms, so the pair shares a kernel),
    "blockdiag" (conjugated direct sums of polynomial pairs), "zero-block"
    (a common zero block conjugated away, giving minimal-index structure),
    "structured" (the multiplier of
    :func:`~pencillab.commuting.construct_multiplier` applied to a
    scrambled canonical singular pencil of a feasible structure).  Default
    draws uniformly from ``kinds``.
    """
    if kind is None:
        kind = kinds[int(rng.integers(0, len(kinds)))]
    n = int(rng.integers(2, max_n + 1))
    if kind == "poly":
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return _random_polynomial_pair(rng, m)
    if kind == "poly-singular":
        m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        a, b = _random_polynomial_pair(rng, m)
        # zero constant terms leave both singular with a shared kernel vector
        a = a - a[0, 0] * np.eye(n)
        b = b - b[0, 0] * np.eye(n)
        return a, b
    if kind == "blockdiag":
        pieces = []
        remaining = n
        while remaining > 0:
            size = int(rng.integers(1, remaining + 1))
            m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            pieces.append(_random_polynomial_pair(rng, m))
            remaining -= size
        a = np.zeros((n, n), dtype=complex)
        b = np.zeros((n, n), dtype=complex)
        pos = 0
        for pa, pb in pieces:
            size = pa.shape[0]
            a[pos : pos + size, pos : pos + size] = pa
            b[pos : pos + size, pos : pos + size] = pb
            pos += size
        q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(q)
        return q @ a @ q.conj().T, q @ b @ q.conj().T
    if kind == "zero-block":
        # shared kernel of dimension k conjugated away: the pencil carries
        # k zero columns and k zero rows next to a regular part
        k = int(rng.integers(1, max(2, n // 2 + 1)))
        inner = max(n - k, 1)
        m = rng.standard_normal((inner, inner)) + 1j * rng.standard_normal((inner, inner))
        pa, pb = _random_polynomial_pair(rng, m)
        a = np.zeros((k + inner, k + inner), dtype=complex)
        b = np.zeros((k + inner, k + inner), dtype=complex)
        a[k:, k:] = pa
        b[k:, k:] = pb
        q = rng.standard_normal((k + inner, k + inner)) + 1j * rng.standard_normal(
            (k + inner, k + inner)
        )
        q, _ = np.linalg.qr(q)
        return q @ a @ q.conj().T, q @ b @ q.conj().T
    if kind == "structured":
        options = (
            (((0, 1), (1, 1)), ((0, 1), (1, 1))),
            (((0, 2), (1, 2)), ((0, 2), (1, 2))),
            (((0, 2), (2, 1)), ((0, 2), (2, 1))),
            (((0, 2),), ((0, 1), (1, 1))),
        )
        rm, cm = options[int(rng.integers(0, len(options)))]
        structure = KroneckerStructure(row_minimal=rm, col_minimal=cm)
        seed = int(rng.integers(0, 2**62))
        p, _ = scramble(assemble(structure), seed, max_cond=30.0)
        e = construct_multiplier(p)
        return e @ p.a, e @ p.b
    raise ValueError(f"unknown generator kind {kind!r}")


def random_doubly_commuting_pair(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normal commuting pair: two diagonals conjugated by one unitary."""
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(q)
    d1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return q @ np.diag(d1) @ q.conj().T, q @ np.diag(d2) @ q.conj().T
