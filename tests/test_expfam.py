import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pumc import core, expfam, models, oracle
from pumc.core import (
    BLOCK_ENTRIES,
    StochasticMatrix,
    build_generic_space,
    build_multigraph_space,
    builtin_family,
    edge_total_table,
    identity_family,
    magnitude,
    num_dyads,
)
from pumc.errors import NotAnMefError, SpaceTooLargeError, TheoremViolationError
from pumc.expfam import (
    MEF_REL_TOL,
    CefSpec,
    CodeTable,
    ExpFamilySpec,
    MefSpec,
    ParameterMap,
    _log_weights,
    _logsumexp_rows,
    affinely_independent_entries,
    as_mef,
    cef_transition_matrix,
    default_probes,
    expfam_to_mef,
    gani_row_value_sets,
    grad_log_partition_fd,
    joint_log_pmf_from_counts,
    kappa_tau_puniformity,
    log_partition,
    mean_parameter,
    mean_statistic,
    mef_check,
    mef_joint_log_pmf,
    pmf,
    puniform_cef_to_expfam,
    row_log_partitions,
    transition_counts,
    validate_cef,
)
from pumc.puniform import Trajectory, detect_puniform


# ------------------------------------------------------------ parameter maps

def test_parameter_map_kinds():
    assert ParameterMap("natural", l=2).evaluate([1.0, -2.0]).tolist() == [1.0, -2.0]
    assert np.isclose(ParameterMap("scalar_log").evaluate(2.0)[0], np.log(2.0))
    pm = ParameterMap("density_logit", n=4)
    assert np.isclose(pm.evaluate(0.3)[0], 3 * np.log(0.3 / 0.7))
    tab = ParameterMap("table", thetas=(0.5,), etas=((1.0, 2.0),), l=2)
    assert tab.evaluate(0.5).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        tab.evaluate(0.6)


def test_parameter_map_domain_checks():
    with pytest.raises(ValueError):
        ParameterMap("scalar_log").evaluate(-1.0)
    with pytest.raises(ValueError):
        ParameterMap("density_logit", n=3).evaluate(1.0)
    with pytest.raises(ValueError):
        ParameterMap("unknown_kind")


def test_default_probes_cover_domains():
    assert default_probes(ParameterMap("scalar_log")) == [0.25, 0.5, 1.0, 2.0, 4.0]
    assert default_probes(ParameterMap("density_logit", n=3)) == [0.1, 0.3, 0.5, 0.7, 0.9]
    probes = default_probes(ParameterMap("natural", l=3))
    assert len(probes) >= 4


# ------------------------------------------------------- single-row families

def test_er_pmf_against_family_pmf():
    # two routes to the same law: direct p^k (1-p)^(N-k) vs the
    # exponential-family normalization
    for n, p in ((3, 0.3), (4, 0.55)):
        direct = models.er_pmf(n, p)
        through_family = pmf(models.er_family(n), p)
        assert np.abs(direct.p - through_family.p).max() <= 1e-14


def test_er_log_partition_closed_form():
    # psi(p) = N log(1 + exp(gamma / (n-1))) with gamma the logit map value
    for n, p in ((3, 0.3), (4, 0.7)):
        fam = models.er_family(n)
        gamma = fam.eta.evaluate(p)[0]
        expected = num_dyads(n) * np.log1p(np.exp(gamma / (n - 1)))
        assert abs(log_partition(fam, p) - expected) <= 1e-12


def test_log_partition_matches_brute_oracle():
    fam = models.er_family(4)
    for p in (0.1, 0.5, 0.9):
        fast = log_partition(fam, p)
        brute = oracle.brute_partition(fam, p)
        assert abs(fast - brute) <= 1e-10 * max(1.0, abs(brute))


def test_mean_statistic_er_closed_form():
    # E tau = p N / (n-1) for tau = |E| / (n-1)
    for n, p in ((3, 0.3), (4, 0.6)):
        fam = models.er_family(n)
        expected = p * num_dyads(n) / (n - 1)
        assert abs(mean_statistic(fam, p)[0] - expected) <= 1e-12


def test_fd_gradient_natural_only():
    space = build_multigraph_space(3, 1)
    nat = ExpFamilySpec(
        space=space,
        kappa=np.ones(8),
        tau=edge_total_table(space) / 2.0,
        eta=ParameterMap("natural", l=1),
    )
    for g in (-1.0, 0.0, 2.0):
        fd = grad_log_partition_fd(nat, (g,))
        assert np.abs(fd - mean_statistic(nat, (g,))).max() <= 1e-6
    with pytest.raises(ValueError):
        grad_log_partition_fd(models.er_family(3), 0.3)


def test_zero_carrier_states_get_zero_mass():
    space = build_generic_space(("a", "b", "c"))
    fam = ExpFamilySpec(
        space=space,
        kappa=np.array([1.0, 0.0, 2.0]),
        tau=np.array([0.0, 5.0, 1.0]),
        eta=ParameterMap("natural", l=1),
    )
    law = pmf(fam, (0.7,))
    assert law.p[1] == 0.0
    with pytest.raises(ValueError):
        ExpFamilySpec(
            space=space, kappa=np.zeros(3), tau=np.zeros(3), eta=ParameterMap("natural", l=1)
        )


def test_table_map_checks_its_samples():
    with pytest.raises(ValueError, match="each table eta must have l = 2 values"):
        ParameterMap("table", l=2, thetas=(0.5,), etas=((1.0,),))
    with pytest.raises(ValueError):  # thetas of two shapes
        ParameterMap("table", thetas=(0.5, (0.5, 1.0)), etas=(1.0, 2.0))
    with pytest.raises(ValueError, match="more than 1e-12 apart"):
        ParameterMap("table", thetas=((0.5, 1.0), (0.5, 1.0 + 5e-13)), etas=(1.0, 2.0))
    tab = ParameterMap("table", thetas=((0.5, 1.0), (0.5, 2.0)), etas=(1.0, 2.0))
    assert tab.evaluate((0.5, 2.0 + 5e-13)).tolist() == [2.0]


# ---------------------------------------------------------------- CEF checks

# shared-normalizer values of the three-state fixture:
# rows 0-1 sum to 3 theta + theta^3, row 2 to 11 theta / 4 + 5 theta^3 / 4
GANI_SUMS = {
    0.5: (1.625, 1.625, 1.53125),
    1.0: (4.0, 4.0, 4.0),
    2.0: (14.0, 14.0, 15.5),
}


def test_gani_raw_sums_frozen():
    cef = models.gani_cef()
    for theta, expected in GANI_SUMS.items():
        report = validate_cef(cef, probes=(theta,))
        assert np.abs(report.raw_sums[0] - np.array(expected)).max() <= 1e-12


def test_gani_row_two_flagged_off_theta_one():
    cef = models.gani_cef()
    assert validate_cef(cef, probes=(2.0,)).mismatched_rows == (2,)
    assert validate_cef(cef, probes=(0.5,)).mismatched_rows == (2,)
    assert validate_cef(cef, probes=(1.0,)).mismatched_rows == ()


def test_gani_literal_rows_stochastic_under_shared_normalizer():
    for theta in (0.5, 1.0, 2.0):
        M = models.GANI_KAPPA * theta**models.GANI_TAU / (3 * theta + theta**3)
        assert np.abs(M[:2].sum(axis=1) - 1.0).max() <= 1e-12


def test_gani_value_sets():
    sets, all_equal = gani_row_value_sets(models.gani_cef())
    assert all_equal
    for s in sets:
        assert np.allclose(s, [1.0, 3.0])


def _value_sets_per_entry(tau: np.ndarray, tol: float) -> list:
    """Reference: the greedy collapse run over every entry of each sorted row."""
    sets = []
    for row in tau:
        vals = np.sort(row)
        keep = [vals[0]]
        for v in vals[1:]:
            if v - keep[-1] > tol:
                keep.append(v)
        sets.append(np.array(keep))
    return sets


def test_gani_value_sets_match_per_entry_collapse():
    # tol applies at the statistic's scale: the largest entry is 2, so the cut is 2 tol.
    tol, scale = 1e-9, 2.0
    cut = tol * scale
    rng = np.random.default_rng(5)
    size = 12
    rows = [
        np.zeros(size),                                   # one value, all tied
        np.repeat([0.0, 1.0, 2.0], 4),                    # exact ties only
        np.arange(size) * (cut * 0.999),                  # one chain of gaps under the cut
        np.repeat(np.arange(6) * (cut * 0.999), 2),       # the chain, each value tied
        np.r_[np.arange(6) * (cut * 0.999), 1.0 + np.arange(6) * cut * 1.001],
        np.r_[np.zeros(4), np.full(4, cut), np.full(4, 2 * cut + 1e-18)],
    ]
    while len(rows) < size:
        base = rng.choice([0.0, 0.5, 1.0], size=size)
        rows.append(base + rng.choice([0.0, 0.4, 0.999, 1.001], size=size) * cut)
    for row in rows:
        rng.shuffle(row)
    tau = np.array(rows)
    assert np.abs(tau).max() == scale
    cef = CefSpec(space=build_generic_space(tuple(str(i) for i in range(size))),
                  kappa=np.ones((size, size)), tau=tau, eta=ParameterMap("natural"))
    for t in (0.0, 1e-12, tol, 1e-6):
        sets, equal = gani_row_value_sets(cef, t)
        expected = _value_sets_per_entry(tau, t * scale)
        assert all(np.array_equal(a, b) for a, b in zip(sets, expected))
        assert equal == all(
            e.size == expected[0].size and np.abs(e - expected[0]).max() <= t * scale for e in expected[1:]
        )


def test_mef_check_rejects_gani_full():
    res = mef_check(models.gani_cef())
    assert not res.ok and res.row == 2
    with pytest.raises(NotAnMefError):
        as_mef(models.gani_cef())


def _scalar_cef(kappa, tau) -> CefSpec:
    kappa = np.asarray(kappa, dtype=np.float64)
    space = build_generic_space(tuple(f"s{i}" for i in range(kappa.shape[0])))
    return CefSpec(space=space, kappa=kappa, tau=np.asarray(tau, dtype=np.float64), eta=ParameterMap("natural"))


def test_dead_row_zero_shares_no_normalizer():
    """Row 0 with no mass has psi = -inf; every live row is infinitely far from it."""
    cef = _scalar_cef([[0, 0, 0], [1, 1, 1], [1, 2, 3]], [[0, 1, 2], [0, 1, 2], [5, 1, 0]])
    res = mef_check(cef)
    assert res.ok is False and res.worst_rel_dev == float("inf") and res.row == 1
    assert res.probe == default_probes(cef.eta)[0]
    with pytest.raises(NotAnMefError, match="row 1 log-partition deviates by inf"):
        as_mef(cef)
    report = validate_cef(cef)
    assert report.mismatched_rows == (1, 2)
    assert report.shared_normalizer.all() == res.ok


def test_normalizers_past_the_float_range_compare_through_psi():
    """Raw sums that overflow leave the psi comparison |psi - psi0| / |psi0| intact, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        apart = _scalar_cef(np.ones((2, 2)), [[1000, 0], [500, 0]])
        report = validate_cef(apart, probes=(1.0, 2.0))
        assert report.shared_normalizer.tolist() == [False, False]
        assert report.mismatched_rows == (1,) and report.worst_rel_spread == 0.5
        assert report.shared_normalizer.all() == mef_check(apart, probes=(1.0, 2.0)).ok
        equal = _scalar_cef(np.ones((2, 2)), [[2000, 0], [0, 2000]])
        report = validate_cef(equal, probes=(1.0,))
        assert report.shared_normalizer.tolist() == [True] and report.worst_rel_spread == 0.0
        assert mef_check(equal, probes=(1.0,)).ok


def test_small_carriers_are_judged_through_psi():
    """Rows whose sums differ by a factor 2 differ by log 2 in psi, however small the sums."""
    cef = _scalar_cef([[1e-30, 1e-30], [2e-30, 2e-30]], np.zeros((2, 2)))
    report, res = validate_cef(cef), mef_check(cef)
    assert report.shared_normalizer.tolist() == [False] * 5 and report.mismatched_rows == (1,)
    assert (res.ok, res.probe, res.row) == (False, -2.0, 1)
    assert report.worst_rel_spread == res.worst_rel_dev
    assert res.worst_rel_dev == pytest.approx(np.log(2.0) / -np.log(2e-30), rel=1e-12)


def test_psi_within_tolerance_passes_both_checks():
    """Raw sums 1e-8 apart relative, psi 5e-10 apart: both checks pass."""
    cef = _scalar_cef(np.ones((2, 2)), [[20, 0], [20 + 1e-8, 0]])
    report, res = validate_cef(cef, probes=(1.0,)), mef_check(cef, probes=(1.0,))
    assert report.shared_normalizer.tolist() == [True] and report.mismatched_rows == ()
    assert res.ok and report.worst_rel_spread == res.worst_rel_dev
    assert res.worst_rel_dev == pytest.approx(5e-10, rel=1e-6)


def test_logsumexp_rows_refuses_a_row_past_the_float_range():
    assert _logsumexp_rows(np.array([[-np.inf, -np.inf], [0.0, 0.0]])).tolist() == [-np.inf, np.log(2.0)]
    for bad in ([[np.inf, 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.nan, 0.0]]):
        with pytest.raises(ValueError, match="overflow the float range"):
            _logsumexp_rows(np.array(bad))
    cef = _scalar_cef(np.ones((2, 2)), [[1e300, 0.0], [0.0, 1e300]])
    with pytest.raises(ValueError, match="overflow the float range"):
        validate_cef(cef, probes=(1e10,))


def _gap(v: float, ref: float) -> float:
    """Reference relative gap of psi values, one pair at a time."""
    if v == ref:
        return 0.0
    if math.isinf(v) or math.isinf(ref):
        return math.inf
    return abs(v - ref) / max(1.0, abs(ref))


@st.composite
def _cefs(draw):
    """CEFs with carriers down to 1e-300, some empty rows and |tau| up to 1e3; half are MEFs."""
    size, l = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    carrier = st.one_of(st.just(0.0), st.floats(1e-300, 1e3))
    kappa = draw(hnp.arrays(np.float64, (size, size), elements=carrier))
    tau = draw(hnp.arrays(np.float64, (size, size, l), elements=st.floats(-1e3, 1e3)))
    if draw(st.booleans()):  # each row a permutation of row 0: one shared psi
        perms = [draw(st.permutations(range(size))) for _ in range(size)]
        kappa, tau = kappa[0][perms], tau[0][perms]
    for row in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        kappa[row] = 0.0
    space = build_generic_space(tuple(f"s{i}" for i in range(size)))
    return CefSpec(space=space, kappa=kappa, tau=tau, eta=ParameterMap("natural", l=l))


@settings(max_examples=200, deadline=None)
@given(cef=_cefs())
def test_validate_cef_and_mef_check_give_one_verdict(cef):
    probes = default_probes(cef.eta)
    report, res = validate_cef(cef), mef_check(cef)
    assert report.shared_normalizer.all() == res.ok
    assert report.worst_rel_spread == res.worst_rel_dev
    psi = np.array([row_log_partitions(cef, theta) for theta in probes])
    gaps = np.array([[_gap(v, row[0]) for v in row] for row in psi.tolist()])
    assert report.mismatched_rows == tuple(np.flatnonzero((gaps > MEF_REL_TOL).any(axis=0)).tolist())
    assert report.worst_rel_spread == gaps.max()
    with np.errstate(over="ignore"):
        assert np.array_equal(report.raw_sums, np.exp(psi))


def test_mef_check_reports_the_first_worst_probe_as_given():
    probes = [1.0, 2.0, float("2")]  # the worst gap twice, at two distinct objects
    res = mef_check(models.gani_cef(), probes)
    assert type(res.ok) is bool and type(res.worst_rel_dev) is float and type(res.row) is int
    assert res.probe is probes[1] and res.row == 2
    assert mef_check(models.gani_cef(), [1.0]) == (True, 0.0, None, 0)


def test_two_row_fixture_is_mef():
    mef = models.gani_two_row_mef()
    assert mef.verified_mef
    assert np.array_equal(mef.kappa[2], mef.kappa[1])
    # rows 0 and 1 keep the original tables
    assert np.array_equal(mef.kappa[:2], models.GANI_KAPPA[:2])
    assert np.array_equal(mef.tau[:2, :, 0], models.GANI_TAU[:2])


def test_two_row_mean_parameter_closed_form():
    mef = models.gani_two_row_mef()
    for theta in (0.5, 1.0, 2.0):
        expected = (3 * theta + 3 * theta**3) / (3 * theta + theta**3)
        mp = mean_parameter(mef, theta)
        assert abs(mp.value[0] - expected) <= 1e-12
        assert np.abs(mp.per_row - expected).max() <= 1e-12


def test_cef_transition_matrix_normalizes_all_rows():
    P = cef_transition_matrix(models.gani_cef(), 2.0)
    assert np.abs(P.P.sum(axis=1) - 1.0).max() <= 1e-12
    # row 2 renormalized by its own sum, so it differs from the literal row
    literal = models.GANI_KAPPA[2] * 2.0 ** models.GANI_TAU[2] / 14.0
    assert np.abs(P.P[2] - literal).max() > 0.01


def test_row_log_partitions_chunking_invariant(monkeypatch):
    cef = models.density_mef(3)
    full = row_log_partitions(cef, 0.3)
    monkeypatch.setattr(core, "BLOCK_ENTRIES", 3 * cef.space.size)
    small = row_log_partitions(cef, 0.3)
    assert np.array_equal(full, small)


def test_reciprocity_build_and_survey_memory():
    """reciprocity_cef(4) holds its tau as a code table (one byte per
    transition; the unit carrier is a broadcast view) and one block of
    counts while it is built; surveying its row normalizers adds one row
    block and the block's gather indices."""
    tracemalloc.start()
    try:
        cef = models.reciprocity_cef(4)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        validate_cef(cef)
        survey_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = cef.space.size
    codes = size * size
    block = BLOCK_ENTRIES // size * size * 8
    slack = 8 * 2**20
    assert cef.tau.codes.nbytes == codes and cef.tau.size == codes
    assert build_peak <= codes + block + slack, f"build peak {build_peak / 2**20:.1f} MiB"
    assert survey_peak <= block + slack, f"survey added {survey_peak / 2**20:.1f} MiB"


@st.composite
def _code_tables(draw):
    """A CodeTable on up to 7 states with up to 300 finite values."""
    size, count = draw(st.integers(1, 7)), draw(st.integers(1, 300))
    values = draw(hnp.arrays(np.float64, count, elements=st.floats(-1e3, 1e3)))
    codes = draw(hnp.arrays(np.min_scalar_type(count - 1), (size, size), elements=st.integers(0, count - 1)))
    return CodeTable(codes=codes, values=values)


@given(table=_code_tables(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_code_table_indexes_as_values_of_codes(table, data):
    """Row slices, [a, b] index arrays, [a] and [:, :, 0] give the array, shape
    and bits of the same index into values[codes][..., None]."""
    dense = table.values[table.codes][..., None]
    size = dense.shape[0]
    assert (table.shape, table.ndim, table.size) == (dense.shape, dense.ndim, dense.size)
    index = st.integers(-size, size - 1)
    bounds = st.integers(-size - 1, size + 1) | st.none()
    rows = slice(data.draw(bounds), data.draw(bounds), data.draw(st.sampled_from([None, 1, 2, -1])))
    k = data.draw(st.integers(0, 9))
    pair = tuple(data.draw(hnp.arrays(np.int64, k, elements=index)) for _ in range(2))
    for key in (rows, pair, data.draw(index), (slice(None), slice(None), 0)):
        got, want = table[key], dense[key]
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
    assert np.asarray(table).tobytes() == dense.tobytes()


@given(table=_code_tables(), theta=st.floats(-3, 3))
@settings(max_examples=40, deadline=None)
def test_code_table_cef_surveys_with_the_dense_bits(table, theta):
    """The fused gather gives the row log-partitions, survey and matrix of the
    CEF holding values[codes] as a dense table, bit for bit."""
    size = table.codes.shape[0]
    space = build_generic_space(tuple(f"s{i}" for i in range(size)))
    unit, eta = np.broadcast_to(1.0, (size, size)), ParameterMap("natural")
    coded = CefSpec(space=space, kappa=unit, tau=table, eta=eta)
    dense = CefSpec(space=space, kappa=unit, tau=table.values[table.codes], eta=eta)
    assert coded.tau is table
    assert row_log_partitions(coded, theta).tobytes() == row_log_partitions(dense, theta).tobytes()
    assert validate_cef(coded).raw_sums.tobytes() == validate_cef(dense).raw_sums.tobytes()
    assert (cef_transition_matrix(coded, theta).P.tobytes() == cef_transition_matrix(dense, theta).P.tobytes())


def test_code_tables_are_checked_when_built():
    codes, values = np.zeros((2, 2), dtype=np.uint8), np.array([0.5, 1.5])
    for bad_codes, bad_values, message in ((codes.astype(np.int8), values, "unsigned"),
                                           (codes[0], values, "unsigned"),
                                           (codes + 2, values, "index the value table"),
                                           (codes, values.astype(np.float32), "float64")):
        with pytest.raises(ValueError, match=message):
            CodeTable(codes=bad_codes, values=bad_values)
    space, unit = build_generic_space(("a", "b")), np.broadcast_to(1.0, (2, 2))
    with pytest.raises(ValueError, match="tau must be finite"):
        CefSpec(space=space, kappa=unit, tau=CodeTable(codes, np.array([np.inf])), eta=ParameterMap("natural"))
    with pytest.raises(ValueError, match=r"tau must be \(size, size, l\)"):
        CefSpec(space=space, kappa=unit, tau=CodeTable(codes, values), eta=ParameterMap("natural", l=2))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_broadcast_carrier_log_weights_keep_the_bits(l):
    """Broadcast and full carriers give the bits of log kappa + tau @ eta, zero entries included."""
    gen = np.random.default_rng(l)
    tau, eta = gen.normal(size=(5, 6, l)) * 3.0, gen.normal(size=l)
    row, col = gen.random(6) * (gen.random(6) > 0.3), gen.random((5, 1))
    row[0], col[2] = 0.0, 0.0
    carriers = [np.broadcast_to(row, (5, 6)), np.broadcast_to(col, (5, 6)),
                np.broadcast_to(0.0, (5, 6)), np.broadcast_to(1.0, (5, 6))]
    cases = [(k, tau) for k in carriers] + [(np.array(carriers[0]), tau), (np.broadcast_to(2.5, (6,)), tau[0])]
    for kappa, tau_k in cases:
        with np.errstate(divide="ignore"):
            want = (np.log(np.array(kappa)) + tau_k @ eta).tobytes()
        assert _log_weights(kappa, tau_k, eta).tobytes() == want
        out = np.empty(kappa.shape)
        assert _log_weights(kappa, tau_k, eta, out) is out and out.tobytes() == want


def test_broadcast_carriers_are_checked_through_their_distinct_entries():
    """A broadcast carrier's NaN or negative entry still raises, and zero_rows
    still lists every row whose broadcast carrier vanishes."""
    space, tau, eta = build_generic_space(("a", "b", "c")), np.zeros((3, 3)), ParameterMap("natural", l=1)
    for bad, message in ((np.nan, "finite"), (-np.inf, "finite"), (-1.0, "nonnegative")):
        for kappa in (np.broadcast_to(bad, (3, 3)), np.broadcast_to([1.0, bad, 1.0], (3, 3)),
                      np.broadcast_to([[1.0], [1.0], [bad]], (3, 3))):
            with pytest.raises(ValueError, match=f"kappa must be {message}"):
                CefSpec(space=space, kappa=kappa, tau=tau, eta=eta)
    for kappa in (np.broadcast_to([[1.0], [0.0], [2.0]], (3, 3)), np.broadcast_to([0.0, 1.0, 1.0], (3, 3)),
                  np.broadcast_to(0.0, (3, 3)), np.broadcast_to(1.0, (3, 3))):
        zero_rows = validate_cef(CefSpec(space=space, kappa=kappa, tau=tau, eta=eta), [0.5]).zero_rows
        assert zero_rows.tolist() == np.flatnonzero(np.array(kappa).max(axis=1) == 0).tolist()


def test_reciprocity_table_refuses_n5_before_the_labels():
    """2^20 directed graphs on 5 vertices: the budget refuses before any label is formatted."""
    tracemalloc.start()
    try:
        with pytest.raises(SpaceTooLargeError, match="1048576 x 1048576"):
            models.reciprocity_table(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_density_and_stability_mefs_verify():
    for mef in (models.density_mef(3), models.stability_mef(3)):
        assert mef.verified_mef
        assert mef_check(mef).ok


def test_mean_parameter_density_closed_form():
    mef = models.density_mef(3)
    for p in (0.3, 0.5):
        mp = mean_parameter(mef, p)
        assert abs(mp.value[0] - p * 3 / 2) <= 1e-12


# ----------------------------------------------------------- joint path laws

def test_transition_counts():
    space = build_multigraph_space(3, 1)
    x = Trajectory(space=space, states=np.array([0, 1, 0, 1, 1]))
    N = transition_counts(x)
    assert N[0, 1] == 2 and N[1, 0] == 1 and N[1, 1] == 1
    assert N.sum() == 4


def test_joint_log_pmf_from_counts_hand_value():
    P = StochasticMatrix(np.array([[0.25, 0.75], [0.5, 0.5]]))
    N = np.array([[2, 1], [0, 3]])
    res = joint_log_pmf_from_counts(P, N)
    assert not res.impossible
    expected = 2 * np.log(0.25) + np.log(0.75) + 3 * np.log(0.5)
    assert abs(res.value - expected) <= 1e-15


def test_joint_log_pmf_impossible_path():
    P = StochasticMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
    res = joint_log_pmf_from_counts(P, np.array([[0, 1], [0, 0]]))
    assert res.impossible and res.value == -np.inf


def test_mef_joint_log_pmf_requires_verification():
    cef = models.gani_cef()
    fake = MefSpec(space=cef.space, kappa=cef.kappa, tau=cef.tau, eta=cef.eta)
    x = Trajectory(space=cef.space, states=np.array([0, 1]))
    with pytest.raises(NotAnMefError):
        mef_joint_log_pmf(fake, 1.0, x)


def test_mef_joint_matches_counts_on_samples():
    mef = models.density_mef(3)
    P = cef_transition_matrix(mef, 0.3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        states = rng.integers(0, 8, size=rng.integers(1, 8))
        x = Trajectory(space=mef.space, states=states)
        a = mef_joint_log_pmf(mef, 0.3, x)
        b = joint_log_pmf_from_counts(P, transition_counts(x))
        assert a.impossible == b.impossible
        if not a.impossible:
            assert abs(a.value - b.value) <= 1e-12


def test_empty_transition_path_has_log_one():
    mef = models.density_mef(3)
    x = Trajectory(space=mef.space, states=np.array([5]))
    assert mef_joint_log_pmf(mef, 0.3, x).value == 0.0


# --------------------------------------------------- family transformations

def test_puniform_cef_to_expfam_recovers_er():
    mef = models.density_mef(3)
    fam = identity_family(8)
    back = puniform_cef_to_expfam(mef, fam)
    er = models.er_family(3)
    assert np.abs(back.kappa - er.kappa).max() <= 1e-12
    assert np.abs(back.tau - er.tau).max() <= 1e-12


def test_puniform_cef_to_expfam_stability_round_trip():
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "stability")
    mef = models.stability_mef(3)
    back = puniform_cef_to_expfam(mef, fam)
    for p in (0.2, 0.6):
        assert np.abs(pmf(back, p).p - models.er_pmf(3, p).p).max() <= 1e-12


def test_puniform_cef_to_expfam_rejects_wrong_family():
    mef = models.stability_mef(3)
    with pytest.raises(ValueError):
        puniform_cef_to_expfam(mef, identity_family(8))


@pytest.mark.parametrize("row", [1, 2])
def test_puniform_cef_to_expfam_refuses_a_shifted_tau_row(row):
    """A constant shift of one tau row leaves the realized matrix p-uniform,
    so only the tables' own check can refuse it, whichever row is shifted."""
    tau = np.tile([0.0, 1.0, 2.0], (3, 1))
    tau[row] += 5.0
    cef = CefSpec(space=build_generic_space(("a", "b", "c")), kappa=np.ones((3, 3)), tau=tau,
                  eta=ParameterMap("natural", l=1))
    with pytest.raises(ValueError, match="rows disagree after relabelling; tables are not p-uniform"):
        puniform_cef_to_expfam(cef, identity_family(3))


def test_puniform_cef_to_expfam_refuses_a_kappa_below_the_table_tolerance():
    """kappa rows differ by 1e-12, below any absolute tolerance; the realized rows
    [1/3, 2/3] and [2/3, 1/3] are not p-uniform (nor is kappa over its largest entry)."""
    cef = CefSpec(space=build_generic_space(("a", "b")), kappa=np.array([[1e-12, 2e-12], [2e-12, 1e-12]]),
                  tau=np.zeros((2, 2)), eta=ParameterMap("natural", l=1))
    with pytest.raises(ValueError, match="realized matrix is not p-uniform"):
        puniform_cef_to_expfam(cef, identity_family(2))


def _three_state_cef(gap):
    """Unit kappa and tau rows [0, 100, 100], [0, 100 + gap, 100], [0, 100, 100]."""
    tau = np.array([[0.0, 100.0, 100.0]] * 3)
    tau[1, 1] += gap
    return CefSpec(space=build_generic_space(("a", "b", "c")), kappa=np.ones((3, 3)), tau=tau,
                   eta=ParameterMap("natural", l=1))


def test_puniform_cef_to_expfam_refuses_a_tau_gap_the_exponent_amplifies():
    """A tau gap of 9e-9 passes the table check at DETECT_TOL * 100, yet
    the realized rows differ by about 2.2e-9 at theta = 1, past DETECT_TOL: only
    the realized-matrix check refuses it."""
    cef = _three_state_cef(9e-9)
    assert all(kappa_tau_puniformity(cef, identity_family(3)).tau_puniform)
    with pytest.raises(ValueError, match=r"realized matrix is not p-uniform at theta=1\.0"):
        puniform_cef_to_expfam(cef, identity_family(3))


def test_kappa_tau_puniformity_reports_a_tau_within_tolerance_whose_matrices_are_not():
    """A tau gap of 9e-8 is within DETECT_TOL * 100, and the exponent turns it into a
    row gap of about 2.2e-8 at theta = 1. Tables p-uniform only within a tolerance do
    not bound the matrices, so the report says so and nothing raises."""
    rep = kappa_tau_puniformity(_three_state_cef(9e-8), identity_family(3))
    assert rep.kappa_puniform and rep.tau_puniform == (True,)
    assert rep.matrix_puniform == (True, True, True, False, False)


def test_kappa_tau_puniformity_raises_when_exact_tables_realize_a_matrix_that_is_not(monkeypatch):
    """Exactly p-uniform tables must realize p-uniform matrices; a realization that
    breaks that is an implementation fault."""
    space = build_multigraph_space(3, 1)
    real = expfam.cef_transition_matrix

    def skewed(cef, theta):
        P = real(cef, theta).P.copy()
        P[0, :2] += [1e-6, -1e-6]
        return StochasticMatrix(P)
    monkeypatch.setattr(expfam, "cef_transition_matrix", skewed)
    with pytest.raises(TheoremViolationError, match="must realize p-uniform matrices"):
        kappa_tau_puniformity(models.stability_mef(3), builtin_family(space, "stability"))


def test_expfam_to_mef_shares_partition():
    space = build_multigraph_space(3, 1)
    mef = expfam_to_mef(models.er_family(3), builtin_family(space, "symdiff"))
    assert mef.verified_mef
    psi = row_log_partitions(mef, 0.4)
    assert np.abs(psi - log_partition(models.er_family(3), 0.4)).max() <= 1e-12


def test_kappa_tau_puniformity_positive_case():
    space = build_multigraph_space(3, 1)
    fam = builtin_family(space, "stability")
    rep = kappa_tau_puniformity(models.stability_mef(3), fam)
    assert rep.kappa_puniform and all(rep.tau_puniform) and all(rep.matrix_puniform)
    assert rep.kappa_positive and rep.eta_affinely_independent


def test_kappa_tau_puniformity_negative_case():
    rep = kappa_tau_puniformity(models.transitivity_cef(4), identity_family(64), probes=(2.0,))
    assert not all(rep.tau_puniform)
    assert not all(rep.matrix_puniform)


def test_kappa_tau_puniformity_checks_a_tiny_carrier_over_its_largest_entry():
    """kappa rows [1e-12, 2e-12] and [2e-12, 1e-12] are within any absolute tolerance
    of each other, yet their realized rows [1/3, 2/3] and [2/3, 1/3] are not p-uniform.
    A carrier's p-uniformity does not depend on its scale, so kappa is not p-uniform
    either, and the implication the report checks holds: no TheoremViolationError."""
    cef = CefSpec(space=build_generic_space(("a", "b")), kappa=np.array([[1e-12, 2e-12], [2e-12, 1e-12]]),
                  tau=np.zeros((2, 2)), eta=ParameterMap("natural", l=1))
    rep = kappa_tau_puniformity(cef, identity_family(2))
    assert not rep.kappa_puniform and rep.kappa_violation == (0, 1, 0)
    assert all(rep.tau_puniform) and not any(rep.matrix_puniform)


def test_puniform_cef_to_expfam_accepts_what_kappa_tau_puniformity_reports_puniform():
    """kappa rows [1, 2] and [1, 2 + 5e-10] are p-uniform within DETECT_TOL, and so is
    every realized matrix: the report and the bridge give one verdict."""
    cef = CefSpec(space=build_generic_space(("a", "b")), kappa=np.array([[1.0, 2.0], [1.0, 2.0 + 5e-10]]),
                  tau=np.zeros((2, 2)), eta=ParameterMap("natural", l=1))
    rep = kappa_tau_puniformity(cef, identity_family(2))
    assert rep.kappa_puniform and all(rep.tau_puniform) and all(rep.matrix_puniform)
    back = puniform_cef_to_expfam(cef, identity_family(2))
    assert back.kappa.tolist() == [1.0, 2.0] and back.tau.tolist() == [[0.0], [0.0]]


def test_kappa_tau_puniformity_names_the_first_failing_probe():
    rep = kappa_tau_puniformity(_three_state_cef(9e-8), identity_family(3))
    theta, triple = rep.matrix_violation
    assert theta == 1.0 and triple[0] == 0 and triple[1:] == (1, 1)
    assert kappa_tau_puniformity(models.stability_mef(3), builtin_family(build_multigraph_space(3, 1),
                                                                           "stability")).matrix_violation is None


def _detected_stability_family():
    return detect_puniform(models.stability_chain(3, 0.3).matrix()).family


def test_puniform_cef_to_expfam_on_a_detected_table_family():
    """The detected family of the stability chain is a sigma table with sigma_0 the
    identity, so the bridge returns the ER family's tables bit for bit."""
    fam = _detected_stability_family()
    er = models.er_family(3)
    cef = expfam_to_mef(er, fam)
    rep = kappa_tau_puniformity(cef, fam)
    assert rep.kappa_puniform and all(rep.tau_puniform) and all(rep.matrix_puniform)
    assert rep.kappa_positive and rep.eta_affinely_independent
    back = puniform_cef_to_expfam(cef, fam)
    assert np.array_equal(back.kappa, er.kappa) and np.array_equal(back.tau, er.tau)
    with pytest.raises(ValueError, match="realized matrix is not p-uniform"):
        puniform_cef_to_expfam(models.transitivity_cef(3), identity_family(8))


@given(family=st.sampled_from(["identity", "stability", "detected"]), l=st.sampled_from([1, 2]),
       table=st.sampled_from(["kappa", "tau"]), entry=st.tuples(st.integers(1, 7), st.integers(0, 7), st.integers(0, 1)),
       shift=st.sampled_from([0.0, 5e-10, 5e-9, 1e-6]), seed=st.integers(0, 2 ** 16))
@example(family="identity", l=1, table="kappa", entry=(1, 1, 0), shift=5e-10, seed=0)
@settings(max_examples=120, deadline=None)
def test_puniform_cef_to_expfam_returns_exactly_when_the_report_is_all_true(family, l, table, entry, shift, seed):
    """One entry of kappa or tau of a spread iid family moves by shift times the table's
    magnitude; the bridge returns exactly when kappa_tau_puniformity reports every flag True."""
    space = build_multigraph_space(3, 1)
    fam = {"identity": identity_family(space.size), "stability": builtin_family(space, "stability"),
           "detected": _detected_stability_family()}[family]
    gen = np.random.default_rng(seed)
    iid = ExpFamilySpec(space=space, kappa=gen.uniform(0.5, 2.0, space.size), tau=gen.normal(size=(space.size, l)),
                        eta=ParameterMap("natural", l=l))
    mef = expfam_to_mef(iid, fam)
    kappa, tau = mef.kappa.copy(), mef.tau.copy()
    a, b, j = entry
    if table == "kappa":
        kappa[a, b] += shift * magnitude(kappa)
    else:
        tau[a, b, j % l] += shift * magnitude(tau)
    cef = CefSpec(space=space, kappa=kappa, tau=tau, eta=mef.eta)
    rep = kappa_tau_puniformity(cef, fam)
    report_true = all([rep.kappa_puniform, *rep.tau_puniform, *rep.matrix_puniform, rep.kappa_positive,
                       rep.eta_affinely_independent])
    try:
        puniform_cef_to_expfam(cef, fam)
        returned = True
    except ValueError:
        returned = False
    assert returned == report_true
    assert (rep.matrix_violation is None) == all(rep.matrix_puniform)


def test_mean_parameter_checks_the_gradient_at_the_statistic_scale():
    """The stability MEF of G(3, 1) with tau = 100 x edge count at theta = 0.003: the
    finite-difference error with a step of FD_STEP and an absolute FD_TOL was 1.8e-6."""
    space = build_multigraph_space(3, 1)
    fam = ExpFamilySpec(space=space, kappa=np.ones(space.size), tau=100.0 * edge_total_table(space),
                        eta=ParameterMap("natural"))
    mean = mean_parameter(expfam_to_mef(fam, builtin_family(space, "stability")), 0.003)
    assert abs(mean.fd_gradient[0] - mean.value[0]) <= 1e-10 * mean.value[0]
    assert mean.value[0] == pytest.approx(mean_statistic(fam, 0.003)[0], rel=1e-12)


def test_affine_independence_basics():
    assert affinely_independent_entries(np.array([[0.0], [1.0]]))
    assert not affinely_independent_entries(np.array([[1.0]]))  # too few samples
    assert affinely_independent_entries(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    # constant second coordinate: eta_2 is affinely dependent on nothing
    assert not affinely_independent_entries(np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]))


@given(st.integers(2, 5))
@settings(max_examples=20, deadline=None)
def test_pmf_normalizes_property(n):
    law = pmf(models.er_family(n) if n <= 4 else models.er_family(4), 0.37)
    assert abs(law.p.sum() - 1.0) <= 1e-12


def test_mean_parameter_requires_verified_mef():
    cef = models.gani_cef()
    fake = MefSpec(space=cef.space, kappa=cef.kappa, tau=cef.tau, eta=cef.eta)
    with pytest.raises(NotAnMefError):
        mean_parameter(fake, 1.0)
