import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumc import core, models
from pumc.core import (
    DENSE_ENTRY_CAP,
    ENUMERATION_CAP,
    Multigraph,
    PermutationFamily,
    Pmf,
    StochasticMatrix,
    build_generic_space,
    build_modular_space,
    build_multigraph_space,
    builtin_family,
    canonical_dyads,
    check_dense_budget,
    dyad_count_table,
    dyad_counts,
    dyad_index,
    edge_total_table,
    identity_family,
    invert_family,
    is_symmetric_family,
    num_dyads,
)
from pumc.errors import SpaceTooLargeError
from pumc.expfam import transition_counts
from pumc.netstat import is_relation_invariant, iso_classes
from pumc.puniform import Trajectory, chain_to_iid, induced_function


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


@given(st.integers(1, 7), st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_dyad_counts_match_decode_and_encode(n, t, data):
    if (t + 1) ** num_dyads(n) > 2 ** 16:
        return
    space = build_multigraph_space(n, t)
    idx = np.array(data.draw(st.lists(st.integers(0, space.size - 1), max_size=20)), dtype=np.int64)
    counts = dyad_counts(space, idx)
    assert counts.shape == (idx.size, num_dyads(n))
    for i, row in zip(idx, counts):
        g = space.decode(int(i))
        assert np.array_equal(row, g.counts)
        assert space.encode(g) == i
    table = dyad_count_table(space)
    assert np.array_equal(table[idx], counts)
    assert np.array_equal(edge_total_table(space), table.sum(axis=1))


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
    for space in (mod, gen):
        assert [space.encode(space.decode(i)) for i in range(space.size)] == list(range(space.size))
    with pytest.raises(ValueError, match="state does not belong to this space"):
        gen.encode("w")
    with pytest.raises(ValueError, match="residue out of range"):
        mod.encode(5)


def test_modular_encode_takes_only_integers():
    mod = build_modular_space(5)
    assert mod.encode(np.int64(3)) == 3 and type(mod.encode(np.uint8(3))) is int
    for state in (2.7, 3.0, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match="state does not belong to this space"):
            mod.encode(state)
    with pytest.raises(ValueError, match="residue out of range"):
        mod.encode(np.int64(-1))


def test_generic_encode_is_one_lookup():
    """encode looks a label up in an index built once per space, not per call."""
    space = build_generic_space(f"s{i}" for i in range(2 ** 16))
    start = time.perf_counter()
    for i in range(10 ** 4):
        space.encode(f"s{i}")
    assert time.perf_counter() - start < 1.0
    assert [space.encode(space.decode(i)) for i in range(space.size)] == list(range(space.size))


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


def _formula_cases():
    """(family, numpy sigma table, numpy inverse table) for every builtin on
    G(n, 1) with n <= 4 and on the modular spaces with n <= 7."""
    for n in range(1, 5):
        space = build_multigraph_space(n, 1)
        idx = np.arange(space.size)
        xor = idx[:, None] ^ idx[None, :]
        ident = np.broadcast_to(idx, xor.shape)
        yield builtin_family(space, "identity"), ident, ident
        yield builtin_family(space, "symdiff"), xor, xor
        comp = xor ^ (space.size - 1)
        yield builtin_family(space, "stability"), comp, comp
    for n in range(1, 8):
        space = build_modular_space(n)
        idx = np.arange(n)
        ident = np.broadcast_to(idx, (n, n))
        yield builtin_family(space, "identity"), ident, ident
        yield builtin_family(space, "modular"), (idx[None, :] - idx[:, None]) % n, (
            idx[:, None] + idx[None, :]) % n


def test_builtin_formulas_match_numpy_on_every_pair():
    for fam, sigma, inverse in _formula_cases():
        idx = np.arange(fam.size)
        assert np.array_equal(fam.apply(idx[:, None], idx), sigma), fam.tag
        assert np.array_equal(fam.unapply(idx[:, None], idx), inverse), fam.tag
        assert np.array_equal(fam.sigma, sigma), fam.tag
        table = PermutationFamily(sigma=sigma)
        assert np.array_equal(table.unapply(idx[:, None], idx), inverse)
        a, b = idx[-1], idx[0]  # scalars broadcast too
        assert fam.apply(a, b) == sigma[a, b] and fam.unapply(a, b) == inverse[a, b]
        path = Trajectory(space=build_modular_space(fam.size), states=idx[::-1].copy())
        z = chain_to_iid(path, fam)
        assert z.flags.writeable and not np.shares_memory(z, path.states), fam.tag


def test_builtin_walk_matches_the_table_loop():
    rng = np.random.default_rng(20261018)
    for fam, sigma, _ in _formula_cases():
        reference = PermutationFamily(sigma=sigma)
        for x0 in {0, fam.size - 1}:
            z = rng.integers(0, fam.size, size=10_000)
            path = fam.walk(x0, z)
            assert path.dtype == np.int64
            assert np.array_equal(path, reference.walk(x0, z)), fam.tag
        assert np.array_equal(fam.walk(0, np.zeros(0, dtype=np.int64)), [0])


def test_modular_space_stops_where_residue_sums_would_leave_int64():
    build_modular_space(2 ** 62)
    with pytest.raises(SpaceTooLargeError, match=r"Z/4611686018427387905 has"):
        build_modular_space(2 ** 62 + 1)


def test_modular_walk_stays_exact_past_int64_partial_sums():
    for size in (2 ** 61 + 1, 2 ** 62):
        fam = builtin_family(build_modular_space(size), "modular")
        z = np.array([size - 1, size - 2, size - 3, 5, size - 7, size - 1], dtype=np.int64)
        expect, cur = [size - 4], size - 4
        for zi in z.tolist():
            cur = (cur + zi) % size
            expect.append(cur)
        assert fam.walk(size - 4, z).tolist() == expect
        a = np.array([size - 1, size - 2])
        assert fam.unapply(a, a).tolist() == [size - 2, size - 4]


def test_builtin_family_is_a_formula_until_sigma_is_read():
    # Just past the budget, so a missing check costs 0.5 GB here, not 8 GiB.
    wide = builtin_family(build_modular_space(2 ** 13 + 1), "modular")
    with pytest.raises(SpaceTooLargeError, match="modular family table"):
        wide.sigma
    with pytest.raises(SpaceTooLargeError, match="inverse family"):
        invert_family(wide)
    fam = builtin_family(build_multigraph_space(6, 1), "stability")
    assert fam.size == 2 ** 15
    a = np.array([0, 5, 2 ** 15 - 1])
    assert fam.apply(a, a).tolist() == [2 ** 15 - 1] * 3
    assert np.array_equal(fam.unapply(a, fam.apply(a, a[::-1])), a[::-1])


def test_invert_family_of_a_formula_is_its_inverse_table():
    space = build_modular_space(6)
    fam = builtin_family(space, "modular")
    inv = invert_family(fam)
    idx = np.arange(6)
    assert inv.tag == "modular^-1"
    assert np.array_equal(inv.sigma, fam.unapply(idx[:, None], idx))


def _families():
    graph = build_multigraph_space(3, 1)
    yield from (builtin_family(graph, name) for name in ("identity", "symdiff", "stability"))
    yield builtin_family(build_modular_space(5), "modular")
    yield PermutationFamily(np.random.default_rng(4).permuted(np.tile(np.arange(6), (6, 1)), axis=1))


def test_spread_reads_values_through_sigma():
    for fam in _families():
        values = np.random.default_rng(fam.size).normal(size=(fam.size, 2))
        table = fam.spread(values, "the test table")
        assert table.shape == (fam.size, fam.size, 2)
        assert np.array_equal(table, values[fam.sigma])
        assert np.array_equal(fam.spread(values[:, 0], "the test table"), values[fam.sigma, 0])
    # Every identity row is values itself, so the table is a read-only view.
    view = identity_family(4).spread(np.arange(4.0), "the test table")
    assert not view.flags.writeable and view.strides[0] == 0


def test_spread_checks_the_budget_first(monkeypatch):
    monkeypatch.setattr(core, "DENSE_ENTRY_CAP", 24)
    for fam in _families():
        with pytest.raises(SpaceTooLargeError, match=f"the test table would hold {fam.size} x {fam.size}"):
            fam.spread(np.zeros(fam.size), "the test table")


def test_size_squared_tables_refuse_past_the_budget(monkeypatch):
    """Each of these would build a size x size array; on G(6, 1) that is 8 GiB."""
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "stability")
    classes = iso_classes(space)
    monkeypatch.setattr(core, "DENSE_ENTRY_CAP", 63)
    for what, call in (("the induced maps", lambda: induced_function(fam, 0)),
                       ("the transition count matrix", lambda: transition_counts(Trajectory(space, np.arange(8)))),
                       ("the MEF tables", lambda: models.stability_mef(3)),
                       ("the MEF tables", lambda: models.density_mef(3)),
                       ("the class map", lambda: is_relation_invariant(fam, classes))):
        with pytest.raises(SpaceTooLargeError, match=f"{what} would hold 8 x 8 entries, past the cap of 63"):
            call()


def test_dense_budget_bounds():
    check_dense_budget(2 ** 12, "reciprocity on 4 vertices")
    check_dense_budget(int(DENSE_ENTRY_CAP ** 0.5), "at the cap")
    with pytest.raises(SpaceTooLargeError, match="32768 x 32768"):
        check_dense_budget(2 ** 15, "G(6, 1)")
    assert 2 ** 24 <= DENSE_ENTRY_CAP < 2 ** 30


def test_multigraph_space_cap_message_never_formats_the_count():
    with pytest.raises(SpaceTooLargeError) as info:
        build_multigraph_space(2000, 1)
    assert str(info.value) == f"G(2000,1) has 2^1999000 states, past the cap of {ENUMERATION_CAP}"
    with pytest.raises(SpaceTooLargeError, match=r"G\(8,1\) has 2\^28 states"):
        build_multigraph_space(8, 1)
    with pytest.raises(SpaceTooLargeError, match=r"G\(4,16\) has 17\^6 states"):
        build_multigraph_space(4, 16)
    assert build_multigraph_space(2000, 0).size == 1
    assert build_multigraph_space(4, 15).size == 16 ** 6


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
