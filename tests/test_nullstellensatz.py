import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facet.nullstellensatz import (
    CERTIFICATES,
    Certificate,
    ExponentOverflow,
    check_certificate,
    cn_witness,
    coefficient,
    graph_polynomial_coefficient,
    pack,
    unpack,
)
from facet import nullstellensatz
from facet.cli import main
from facet.nullstellensatz import _capped_expansion

from helpers import (
    reference_cn_witness,
    reference_expand_polynomial,
    reference_graph_polynomial_coefficient,
)


def uncapped_expansion(nvars, pairs):
    """The capped kernel with every cap above any reachable exponent."""
    return _capped_expansion(tuple(pairs), (len(pairs) + 1,) * nvars)


def dense_expansion(nvars, pairs):
    """Multiply the factors monomial by monomial, no pruning at all."""
    poly = {(0,) * nvars: 1}
    for i, j in pairs:
        nxt = {}
        for exps, c in poly.items():
            up = list(exps)
            up[i - 1] += 1
            nxt[tuple(up)] = nxt.get(tuple(up), 0) + c
            down = list(exps)
            down[j - 1] += 1
            nxt[tuple(down)] = nxt.get(tuple(down), 0) - c
        poly = nxt
    return poly


def dense_coefficient(nvars, pairs, target):
    return dense_expansion(nvars, pairs).get(target, 0)


def dense_capped(nvars, pairs, caps):
    """Dense expansion filtered to nonzero monomials below the caps."""
    return {
        exps: c
        for exps, c in dense_expansion(nvars, pairs).items()
        if c and all(e < cap for e, cap in zip(exps, caps))
    }


def test_pack_unpack_roundtrip():
    exps = (0, 15, 3, 7, 1)
    assert unpack(pack(exps), 5) == exps


def test_pack_overflow():
    with pytest.raises(ExponentOverflow):
        pack((16,))


@settings(max_examples=100)
@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda p: p[0] < p[1]
                ),
                min_size=1,
                max_size=8,
            ),
            st.data(),
        )
    )
)
def test_coefficient_matches_dense_expansion(args):
    nvars, pairs, data = args
    total = len(pairs)
    # a random composition of the total degree
    target = [0] * nvars
    for _ in range(total):
        target[data.draw(st.integers(0, nvars - 1))] += 1
    target = tuple(target)
    got = graph_polynomial_coefficient(pairs, target)
    assert got == dense_coefficient(nvars, pairs, target)


def test_sum_of_coefficients_vanishes():
    # P(1, ..., 1) = 0 because every factor vanishes
    for pairs in [[(1, 2)], [(1, 2), (1, 3), (2, 3)], [(1, 2), (3, 4)]]:
        poly = uncapped_expansion(4, pairs)
        assert sum(poly.values()) == 0


def test_triangle_coefficients():
    pairs = [(1, 2), (1, 3), (2, 3)]
    assert graph_polynomial_coefficient(pairs, (2, 1, 0)) == 1
    assert graph_polynomial_coefficient(pairs, (0, 1, 2)) == -1
    assert graph_polynomial_coefficient(pairs, (1, 1, 1)) == 0


def test_triangle_not_two_choosable():
    # caps (2,2,2) allow exponents <= 1 only; X1X2X3 has coefficient 0
    assert cn_witness([(1, 2), (1, 3), (2, 3)], (2, 2, 2)) is None


def test_even_cycle_witness_exists():
    pairs = [(1, 2), (2, 3), (3, 4), (1, 4)]
    wit = cn_witness(pairs, (2, 2, 2, 2))
    assert wit is not None
    assert all(w <= 1 for w in wit)
    assert graph_polynomial_coefficient(pairs, wit) != 0


def test_witness_is_lex_smallest():
    pairs = [(1, 2)]
    assert cn_witness(pairs, (2, 2)) == (0, 1)


def test_witness_memoized_on_tuples(monkeypatch):
    calls = []
    kernel = nullstellensatz._capped_expansion

    def counted(pairs, caps):
        calls.append((pairs, caps))
        return kernel(pairs, caps)

    monkeypatch.setattr(nullstellensatz, "_capped_expansion", counted)
    nullstellensatz._witness.cache_clear()
    # lists and tuples of the same pairs and caps share one expansion
    for pairs, caps in [([[1, 2], [2, 3]], [2, 2, 2]), (((1, 2), (2, 3)), (2, 2, 2))]:
        assert cn_witness(pairs, caps) == (0, 1, 1)
    assert calls == [(((1, 2), (2, 3)), (2, 2, 2))]


@pytest.mark.parametrize(
    "pairs, caps, want",
    [
        # a variable with cap 0 has no color, so nothing extends
        ((), (0,), None),
        (((1, 2),), (2, 0, 1), None),
        # 16 factors on each variable fit when the caps keep them below 16
        (((1, 2),) * 16, (16, 16), (1, 15)),
    ],
    ids=["lone-cap-zero", "idle-cap-zero", "cap-sixteen"],
)
def test_witness_at_the_cap_boundaries(pairs, caps, want):
    assert cn_witness(pairs, caps) == want


class TestGoldenCertificates:
    @pytest.mark.parametrize("name", sorted(CERTIFICATES))
    def test_certificate(self, name):
        cert = CERTIFICATES[name]
        start = time.perf_counter()
        coeff = check_certificate(cert)
        witness = cn_witness(cert.pairs, cert.caps)
        elapsed = time.perf_counter() - start
        assert coeff == cert.pinned
        assert witness is not None
        assert elapsed < 5.0
        # the target itself respects the caps with one spare color
        assert all(t < c for t, c in zip(cert.target, cert.caps))

    def test_target_degree_matches_pair_count(self):
        for cert in CERTIFICATES.values():
            assert sum(cert.target) == len(cert.pairs)


@pytest.mark.parametrize(
    "pairs, target, caps, detail",
    [
        (((1, 2),), (1,), (2, 2), r"target and caps lengths differ"),
        (((1, 2),), (1, 0), (2,), r"target and caps lengths differ"),
        (((1, 3),), (1, 0), (2, 2), r"bad pair \(1, 3\)"),
        (((2, 2),), (1, 0), (2, 2), r"bad pair \(2, 2\)"),
        (((1, 2),), (1, 1), (2, 2), r"target degree must equal the number of factors"),
        # each index one past either end of 1..nvars
        (((0, 2),), (1, 0, 0), (2, 2, 2), r"bad pair \(0, 2\)"),
        (((4, 2),), (1, 0, 0), (2, 2, 2), r"bad pair \(4, 2\)"),
        (((2, 0),), (1, 0, 0), (2, 2, 2), r"bad pair \(2, 0\)"),
        (((2, 4),), (1, 0, 0), (2, 2, 2), r"bad pair \(2, 4\)"),
    ],
    ids=[
        "short-target", "short-caps", "pair-out-of-range", "pair-self", "target-degree",
        "i-zero", "i-past-nvars", "j-zero", "j-past-nvars",
    ],
)
def test_certificate_validation(pairs, target, caps, detail):
    with pytest.raises(ValueError, match=f"^{detail}$"):
        Certificate("bad", pairs, target, caps, pinned=0)


@pytest.mark.parametrize("pair", [(1, 3), (3, 1)])
def test_pair_index_at_either_end_accepted(pair):
    # i and j each take the values 1 and nvars = 3
    assert Certificate("ends", (pair,), (1, 0, 0), (2, 2, 2), pinned=1).pairs == (pair,)


def test_coefficient_wrapper_degree_mismatch_is_zero():
    assert coefficient([(1, 2)], (2, 2)) == 0


def test_coefficient_wrapper_rejects_bad_pair():
    with pytest.raises(ValueError):
        coefficient([(2, 2)], (1, 1))
    with pytest.raises(ValueError):
        coefficient([(1, 5)], (1, 1))


def test_cn_lemma_known_names(capsys):
    assert main(["cn", "--lemma", "four-vertex"]) == 0
    assert capsys.readouterr().out == "coefficient = 6\n"
    cert = CERTIFICATES["four-vertex"]
    assert len(cert.caps) == len(cert.target)


def test_cn_lemma_unknown_name(capsys):
    assert main(["cn", "--lemma", "no-such-lemma"]) == 2
    known = "four-vertex, nine-face, ten-face-adjacent, ten-face-dist3, ten-face-dist4"
    assert capsys.readouterr() == (
        "", f"error: unknown certificate 'no-such-lemma'; known: {known}\n"
    )


def test_expand_respects_caps():
    pairs = [(1, 2), (1, 3), (2, 3)]
    poly = _capped_expansion(tuple(pairs), (2, 3, 3))
    for key in poly:
        assert unpack(key, 3)[0] <= 1


class TestOracles:
    """The capped kernel against the earlier, unbounded kernels."""

    @pytest.mark.parametrize("name", sorted(CERTIFICATES))
    def test_certificate_matches_reference_kernels(self, name):
        c = CERTIFICATES[name]
        nvars = len(c.caps)
        assert graph_polynomial_coefficient(
            c.pairs, c.target
        ) == reference_graph_polynomial_coefficient(nvars, c.pairs, c.target)
        assert _capped_expansion(c.pairs, c.caps) == reference_expand_polynomial(
            nvars, c.pairs, c.caps
        )
        assert cn_witness(
            c.pairs, c.caps
        ) == reference_cn_witness(nvars, c.pairs, c.caps)

    @settings(max_examples=150)
    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                        lambda p: p[0] != p[1]
                    ),
                    max_size=8,
                ),
                st.lists(st.integers(1, 5), min_size=n, max_size=n),
            )
        )
    )
    def test_capped_expansion_matches_dense(self, args):
        nvars, pairs, caps = args
        want = dense_capped(nvars, pairs, caps)
        got = _capped_expansion(tuple(pairs), tuple(caps))
        assert {unpack(k, nvars): c for k, c in got.items()} == want
        assert cn_witness(pairs, tuple(caps)) == min(want, default=None)
        uncapped = {e: c for e, c in dense_expansion(nvars, pairs).items() if c}
        got = uncapped_expansion(nvars, pairs)
        assert {unpack(k, nvars): c for k, c in got.items()} == uncapped

    def test_caps_below_degree_leave_nothing(self):
        # sum(cap - 1) = 2 < 3 factors: no monomial fits
        pairs = [(1, 2), (1, 3), (2, 3)]
        assert _capped_expansion(tuple(pairs), (2, 2, 1)) == {}
        assert cn_witness(pairs, (2, 2, 1)) is None

    def test_target_above_factor_count_is_zero(self):
        # variable 2 lies in one factor but the target asks for X2^2
        assert graph_polynomial_coefficient([(1, 2), (1, 3)], (0, 2, 0)) == 0

    def test_binomial_power_fifteen(self):
        poly = uncapped_expansion(2, [(1, 2)] * 15)
        assert len(poly) == 16
        for a in range(16):
            want = math.comb(15, a) * (-1) ** (15 - a)
            assert poly[pack((a, 15 - a))] == want

    def test_binomial_power_sixteen_overflows(self):
        with pytest.raises(ExponentOverflow):
            uncapped_expansion(2, [(1, 2)] * 16)
        with pytest.raises(ExponentOverflow):
            cn_witness([(1, 2)] * 16, (17, 17))

    def test_target_above_fifteen_keeps_pack_message(self):
        with pytest.raises(ExponentOverflow, match="exponent 16 of variable 1"):
            graph_polynomial_coefficient([(1, 2)] * 16, (16, 0))
