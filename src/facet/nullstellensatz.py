"""Sparse polynomial arithmetic for coloring certificates.

The certificate method: a coloring constraint graph on variables
X_1..X_n yields the polynomial  P = prod over constrained pairs (i, j)
of (X_i - X_j).  If the coefficient of a monomial  prod X_i^{t_i}  with
sum t_i = deg P  is nonzero and every variable has more than t_i
admissible values, a proper choice always exists regardless of which
lists the adversary supplies (Alon, Combinatorial Nullstellensatz).

One kernel, :func:`_capped_expansion`, multiplies the factors in order
and keeps the monomials whose exponents stay below per-variable caps.
It drops a partial product once it cannot reach such a monomial: with
r_i factors on variable i still to come, exponents e_i can reach degree
at most  sum_i min(cap_i - 1, e_i + r_i).  Each factor lowers that by
zero or one, so the loss is counted in the key bits above the exponents
(it depends only on exponents and step, so equal monomials still merge).
The coefficient is the kernel with caps = target + 1, whose zero slack
leaves only the target; :func:`cn_witness` is the kernel's smallest key
under the given caps.  Both are memoized: :func:`check_certificate` per
frozen certificate and :func:`cn_witness` per distinct pairs and caps,
so the reducibility checks expand each bundled certificate's target and
each configuration's own conflicts once per process, however often they
replay them.

Monomials are nibble-packed: exponent of variable i (0-based) lives in
bits 4i..4i+3 of an int key, so individual exponents must stay below 16.
That bound is far above anything the bundled certificates need.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional

_NIBBLE = 0xF


class ExponentOverflow(ValueError):
    """An exponent reached 16 and no longer fits its nibble."""


def pack(exponents: Iterable[int]) -> int:
    key = 0
    for i, t in enumerate(exponents):
        if not (0 <= t <= _NIBBLE):
            raise ExponentOverflow(f"exponent {t} of variable {i + 1} not in 0..15")
        key |= t << (4 * i)
    return key


def unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> (4 * i)) & _NIBBLE for i in range(nvars))


@dataclass(frozen=True)
class Certificate:
    """A difference-product certificate instance.

    ``pairs`` use 1-based variable indices.  ``target`` is the monomial
    whose coefficient is evaluated; ``caps[i]`` is the guaranteed list
    size for variable i+1 (so the certificate applies when every list
    has at least that many admissible values).  ``len(caps)`` is the
    number of variables.
    """

    name: str
    pairs: tuple[tuple[int, int], ...]
    target: tuple[int, ...]
    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        nvars = len(self.caps)
        if len(self.target) != nvars:
            raise ValueError("target and caps lengths differ")
        for i, j in self.pairs:
            if not (1 <= i <= nvars and 1 <= j <= nvars and i != j):
                raise ValueError(f"bad pair ({i}, {j})")
        if sum(self.target) != len(self.pairs):
            raise ValueError("target degree must equal the number of factors")


def _capped_expansion(
    pairs: tuple[tuple[int, int], ...], caps: tuple[int, ...]
) -> dict[int, int]:
    """Monomials of ``prod (X_i - X_j)`` with every exponent below its cap.

    Returns packed key -> nonzero coefficient; ``len(caps)`` is the
    variable count.  Raises :class:`ExponentOverflow` up front when an
    exponent allowed by its cap and its factor count would pass 15.
    """
    left = [0] * len(caps)
    for i, j in pairs:
        left[i - 1] += 1
        left[j - 1] += 1
    tops = [min(c - 1, r) for c, r in zip(caps, left)]
    for v, top in enumerate(tops):
        if top > _NIBBLE:
            raise ExponentOverflow(f"variable {v + 1} is in {left[v]} factors, past 15")
    slack = sum(tops) - len(pairs)
    if slack < 0 or min(tops, default=0) < 0:
        return {}
    lost = 1 << (4 * len(caps))
    dead = (slack + 1) * lost
    poly: dict[int, int] = {0: 1}
    for i, j in pairs:
        ii, jj = i - 1, j - 1
        shift_i, shift_j = 4 * ii, 4 * jj
        inc_i, inc_j = 1 << shift_i, 1 << shift_j
        # a variable may grow while below cap - 1; the other one loses
        # reach if its exponent plus its factors left is at most cap - 1
        grow_i, grow_j = caps[ii] - 2, caps[jj] - 2
        keep_i, keep_j = caps[ii] - 1 - left[ii], caps[jj] - 1 - left[jj]
        left[ii] -= 1
        left[jj] -= 1
        nxt: dict[int, int] = {}
        for key, coef in poly.items():
            if not coef:  # cancelled; zeros are dropped at the end
                continue
            ei = (key >> shift_i) & _NIBBLE
            ej = (key >> shift_j) & _NIBBLE
            # a live key stays live unless a loss is added
            if ei <= grow_i:
                k2 = key + inc_i
                if ej > keep_j or (k2 := k2 + lost) < dead:
                    nxt[k2] = nxt.get(k2, 0) + coef
            if ej <= grow_j:
                k2 = key + inc_j
                if ei > keep_i or (k2 := k2 + lost) < dead:
                    nxt[k2] = nxt.get(k2, 0) - coef
        poly = nxt
    return {k % lost: c for k, c in poly.items() if c}


def graph_polynomial_coefficient(
    pairs: Iterable[tuple[int, int]], target: tuple[int, ...]
) -> int:
    """Coefficient of ``prod X_i^{target[i-1]}`` in ``prod (X_i - X_j)``."""
    pairs = tuple(pairs)
    if sum(target) != len(pairs):
        return 0
    key = pack(target)
    return _capped_expansion(pairs, tuple(t + 1 for t in target)).get(key, 0)


def cn_witness(
    pairs: Iterable[tuple[int, int]], caps: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest witness monomial under the caps.

    Searches the expansion of ``prod (X_i - X_j)`` for a monomial with
    nonzero coefficient and exponent of variable i strictly below
    ``caps[i-1]`` for every i.  Returns its exponent vector or ``None``.
    Memoized on the pairs and caps as tuples; raises
    :class:`ExponentOverflow` as the kernel does.
    """
    return _witness(tuple(map(tuple, pairs)), tuple(caps))


@functools.lru_cache(maxsize=1024)
def _witness(
    pairs: tuple[tuple[int, int], ...], caps: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    poly = _capped_expansion(pairs, caps)
    return min((unpack(key, len(caps)) for key in poly), default=None)


def coefficient(
    pairs: Iterable[tuple[int, int]], target: tuple[int, ...]
) -> int:
    """Coefficient of the target monomial in ``prod (X_i - X_j)``.

    The variable count is the length of ``target``.  A target whose
    degree differs from the number of factors makes the coefficient
    trivially zero; that case returns 0 instead of raising.
    """
    pairs = tuple(pairs)
    nvars = len(target)
    for i, j in pairs:
        if not (1 <= i < j <= nvars):
            raise ValueError(f"pair ({i}, {j}) out of range for {nvars} variables")
    return graph_polynomial_coefficient(pairs, tuple(target))


@functools.cache
def check_certificate(cert: Certificate) -> int:
    """The coefficient of a certificate's target monomial.

    The certificate is valid when it is nonzero and the target respects
    the caps.
    """
    return graph_polynomial_coefficient(cert.pairs, cert.target)


# -- bundled certificates -------------------------------------------------
#
# Each instance below is a frozen transcription of one certificate used
# by the reducibility catalog.  Variable numbering matches the edge
# numbering in the corresponding host configuration; see
# reducibility.catalog() for the geometric side.

FOUR_VERTEX = Certificate(
    name="four-vertex",
    pairs=(
        (1, 2), (1, 4), (1, 5), (1, 6), (1, 8),
        (2, 3), (2, 5), (2, 6), (2, 7),
        (3, 4), (3, 6), (3, 7), (3, 8),
        (4, 5), (4, 7), (4, 8),
        (5, 6), (5, 8),
        (6, 7),
        (7, 8),
    ),
    target=(3, 3, 3, 3, 2, 2, 2, 2),
    caps=(4, 4, 4, 4, 3, 3, 3, 3),
)

NINE_FACE = Certificate(
    name="nine-face",
    pairs=(
        (1, 2), (1, 3), (1, 6), (1, 7),
        (2, 3), (2, 4), (2, 7),
        (3, 4), (3, 5),
        (4, 5), (4, 6), (4, 7),
        (5, 6), (5, 7),
        (6, 7),
    ),
    target=(2, 2, 2, 2, 2, 3, 2),
    caps=(3, 3, 3, 3, 4, 4, 3),
)

TEN_FACE_ADJACENT = Certificate(
    name="ten-face-adjacent",
    pairs=(
        (1, 2), (1, 3), (1, 9), (1, 10),
        (2, 3), (2, 5), (2, 9), (2, 10),
        (3, 5), (3, 6), (3, 10),
        (5, 6), (5, 7),
        (6, 7), (6, 9),
        (7, 9), (7, 10),
        (9, 10),
    ),
    target=(4, 4, 2, 0, 2, 1, 2, 0, 0, 3),
    caps=(5, 5, 3, 1, 3, 3, 3, 1, 3, 5),
)

TEN_FACE_DIST3 = Certificate(
    name="ten-face-dist3",
    pairs=(
        (1, 2), (1, 3), (1, 4), (1, 8), (1, 10),
        (2, 3), (2, 4), (2, 10),
        (3, 4), (3, 6), (3, 10),
        (4, 6), (4, 7),
        (6, 7), (6, 8),
        (7, 8), (7, 10),
        (8, 10),
    ),
    target=(3, 2, 2, 3, 0, 2, 2, 1, 0, 3),
    caps=(4, 3, 4, 4, 1, 3, 3, 3, 1, 4),
)

TEN_FACE_DIST4 = Certificate(
    name="ten-face-dist4",
    pairs=TEN_FACE_DIST3.pairs,
    target=TEN_FACE_DIST3.target,
    caps=(4, 3, 3, 4, 1, 3, 3, 3, 1, 4),
)

CERTIFICATES: dict[str, Certificate] = {
    c.name: c
    for c in (
        FOUR_VERTEX,
        NINE_FACE,
        TEN_FACE_ADJACENT,
        TEN_FACE_DIST3,
        TEN_FACE_DIST4,
    )
}

# Expected target coefficients, pinned so a drifting transcription is
# caught at the coefficient it changes.
EXPECTED_COEFFICIENTS: dict[str, int] = {
    "four-vertex": 6,
    "nine-face": -3,
    "ten-face-adjacent": 1,
    "ten-face-dist3": -1,
    "ten-face-dist4": -1,
}


def lemma_polynomial(
    name: str,
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """Bundled certificate data by name: ``(pairs, target, caps)``."""
    cert = CERTIFICATES.get(name)
    if cert is None:
        raise ValueError(
            f"unknown certificate {name!r}; known: {', '.join(sorted(CERTIFICATES))}"
        )
    return cert.pairs, cert.target, cert.caps
