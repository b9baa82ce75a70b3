import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumc.core import (
    ENUMERATION_CAP,
    Multigraph,
    PermutationFamily,
    Pmf,
    StateSpace,
    StochasticMatrix,
    build_generic_space,
    build_modular_space,
    build_multigraph_space,
    builtin_family,
    canonical_dyads,
    dyad_count_table,
    dyad_index,
    edge_total_table,
    identity_family,
    invert_family,
    is_symmetric_family,
    num_dyads,
)
from pumc.errors import SpaceTooLargeError


def test_num_dyads_small_values():
    assert [num_dyads(n) for n in (2, 3, 4, 5)] == [1, 3, 6, 10]


def test_canonical_dyads_order_and_index():
    dyads = canonical_dyads(4)
    assert dyads == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    for f, (u, v) in enumerate(dyads):
        assert dyad_index(u, v) == f


def test_multigraph_space_sizes():
    assert build_multigraph_space(3, 1).size == 8
    assert build_multigraph_space(4, 1).size == 64
    assert build_multigraph_space(3, 2).size == 27
    assert build_multigraph_space(3, 3).size == 64


def test_space_too_large_raises():
    with pytest.raises(SpaceTooLargeError):
        build_multigraph_space(10, 3)


def test_codec_single_edge_states():
    # dyad f at multiplicity m encodes to m * (t+1)^f
    space = build_multigraph_space(3, 2)
    for f in range(3):
        for m in range(3):
            counts = np.zeros(3, dtype=np.int64)
            counts[f] = m
            g = Multigraph(n=3, t=2, counts=counts)
            assert space.encode(g) == m * 3**f
            assert space.decode(m * 3**f) == g


@given(st.integers(2, 5), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_codec_round_trip(n, t, data):
    if (t + 1) ** num_dyads(n) > ENUMERATION_CAP:
        return
    space = build_multigraph_space(n, t)
    idx = data.draw(st.integers(0, space.size - 1))
    assert space.encode(space.decode(idx)) == idx


def test_dyad_count_table_matches_decode():
    space = build_multigraph_space(3, 2)
    table = dyad_count_table(space)
    for i in range(space.size):
        assert np.array_equal(table[i], space.decode(i).counts)
    assert np.array_equal(table.sum(axis=1), edge_total_table(space))


def test_modular_and_generic_spaces():
    mod = build_modular_space(5)
    assert mod.size == 5 and mod.kind == "modular"
    gen = build_generic_space(("a", "b", "c"))
    assert gen.size == 3 and gen.labels == ("a", "b", "c")


def test_pmf_validation():
    Pmf(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Pmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Pmf(np.array([-0.1, 1.1]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Pmf(np.array([bad, 1.0]))


def test_stochastic_matrix_validation():
    StochasticMatrix(np.array([[0.3, 0.7], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[0.3, 0.6], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        StochasticMatrix(np.array([[1.0, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            StochasticMatrix(np.array([[bad, 1.0], [0.5, 0.5]]))


def test_permutation_family_validation():
    PermutationFamily(sigma=np.array([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        PermutationFamily(sigma=np.array([[0, 0], [1, 0]]))


def test_invert_family_round_trip():
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "stability")
    inv = invert_family(fam)
    rows = np.arange(fam.size)[:, None]
    assert np.array_equal(fam.sigma[rows, inv.sigma], np.broadcast_to(np.arange(8), (8, 8)))
    assert np.array_equal(invert_family(inv).sigma, fam.sigma)


def test_identity_family():
    fam = identity_family(4)
    assert np.array_equal(fam.sigma, np.broadcast_to(np.arange(4), (4, 4)))


def test_symdiff_family_is_xor():
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "symdiff")
    for a in range(8):
        for b in range(8):
            assert fam.sigma[a, b] == a ^ b


def test_stability_family_is_complemented_xor():
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "stability")
    for a in range(8):
        for b in range(8):
            assert fam.sigma[a, b] == (a ^ b) ^ 0b111


def test_stability_family_self_inverse_and_symmetric():
    space = build_multigraph_space(4, 1)
    fam = builtin_family(space, "stability")
    assert np.array_equal(invert_family(fam).sigma, fam.sigma)
    ok, pair = is_symmetric_family(fam)
    assert ok and pair is None


def test_modular_family_difference():
    space = build_modular_space(5)
    fam = builtin_family(space, "modular")
    for i in range(5):
        for j in range(5):
            assert fam.sigma[i, j] == (j - i) % 5


def test_modular_family_not_symmetric_above_two():
    space = build_modular_space(3)
    fam = builtin_family(space, "modular")
    ok, pair = is_symmetric_family(fam)
    assert not ok
    a, b = pair
    assert fam.sigma[a, b] != fam.sigma[b, a]


def test_builtin_family_rejects_mismatched_space():
    with pytest.raises(ValueError):
        builtin_family(build_modular_space(5), "stability")
    with pytest.raises(ValueError):
        builtin_family(build_multigraph_space(3, 2), "symdiff")


def test_multigraph_validation():
    Multigraph(n=3, t=2, counts=np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        Multigraph(n=3, t=1, counts=np.array([0, 2, 0]))
    with pytest.raises(ValueError):
        Multigraph(n=3, t=1, counts=np.array([0, 1]))


def test_multigraph_equality_and_hash():
    a = Multigraph(n=3, t=1, counts=np.array([1, 0, 1]))
    b = Multigraph(n=3, t=1, counts=np.array([1, 0, 1]))
    assert a == b and hash(a) == hash(b)
    assert a != Multigraph(n=3, t=1, counts=np.array([1, 1, 1]))
    assert a.total_multiplicity() == 2
