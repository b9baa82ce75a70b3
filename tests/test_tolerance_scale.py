"""Every verdict on values that are not probabilities compares at tol * magnitude(reference).

Each case builds a true instance that carries rounding at its own scale: a sum or
product over dyads, taken in an order that changes from state to state or from row
to row, which exact arithmetic would make exactly dyadic, p-uniform or
class-constant. The instance is scaled by 10^k for k in -8..8, and a natural
parameter theta by 10^-k. It must pass at every scale, and the same instance with
one entry moved by 10 tol times its magnitude (10 tol max kappa for a carrier)
must fail. The finite-difference check has no moved instance; it only has to pass.
"""

import numpy as np
import pytest

from pumc.core import build_multigraph_space, builtin_family, dyad_counts, edge_total_table, magnitude, num_dyads
from pumc.errors import NotAnMefError, TheoremViolationError
from pumc.expfam import (
    MEF_REL_TOL,
    ROW_CONSISTENCY_TOL,
    CefSpec,
    MefSpec,
    ParameterMap,
    as_mef,
    default_probes,
    gani_row_value_sets,
    kappa_tau_puniformity,
    mean_parameter,
)
from pumc.netstat import (
    EXCHANGE_TOL,
    RECONSTRUCTION_TOL,
    factor_dyadditive,
    factor_dyadically_multiplicative,
    is_finitely_exchangeable,
    iso_classes,
    sorted_degree_table,
)
from pumc.puniform import DETECT_TOL, check_puniform


def _fold(tables, counts, shift, combine):
    """combine over the dyads f of tables[f, counts[..., f]], taken in the order
    f = shift, shift + 1, ... mod N; exact arithmetic gives one value whatever shift is."""
    dyads = tables.shape[0]
    total = None
    for i in range(dyads):
        f = (shift + i) % dyads
        term = tables[f, np.take_along_axis(counts, f[..., None], axis=-1)[..., 0]]
        total = term if total is None else combine(total, term)
    return total


def _statistic_tables(n, scale):
    return scale * np.random.default_rng(n).normal(size=(num_dyads(n), 2))


def _spread(n, combine, tables):
    """The stability family of G(n, 1) and the table g(sigma_a(b)), with g folded over
    the dyads of sigma_a(b) in an order that turns with the row a."""
    space = build_multigraph_space(n, 1)
    fam = builtin_family(space, "stability")
    idx = np.arange(space.size)
    targets = fam.apply(idx[:, None], idx)
    return space, fam, _fold(tables, dyad_counts(space, targets), np.broadcast_to(idx[:, None], targets.shape), combine)


def _scalar_mef(scale):
    space, fam, tau = _spread(3, np.add, _statistic_tables(3, scale))
    return as_mef(CefSpec(space=space, kappa=np.ones((space.size, space.size)), tau=tau, eta=ParameterMap("natural")))


def _passes(call, error):
    try:
        call()
    except error:
        return False
    return True


def puniform_table(scale):
    _, fam, table = _spread(4, np.add, _statistic_tables(4, scale))
    moved = table.copy()
    moved[1, 5] += 10 * DETECT_TOL * magnitude(table)
    return lambda t: check_puniform(t, fam)[0], table, moved


def _dyadditive(space, tau):
    moved = tau.copy()
    moved[-1] += 10 * RECONSTRUCTION_TOL * magnitude(tau)
    return lambda t: factor_dyadditive(space, t).ok, tau, moved


def dyadditive(scale):
    space = build_multigraph_space(5, 1)
    idx = np.arange(space.size)
    return _dyadditive(space, _fold(_statistic_tables(5, scale), dyad_counts(space, idx), idx, np.add))


def dyadditive_on_four_vertices(scale):
    space = build_multigraph_space(4, 1)
    idx = np.arange(space.size)
    return _dyadditive(space, _fold(_statistic_tables(4, scale), dyad_counts(space, idx), idx, np.add))


def edge_count_and_a_constant(scale):
    """1e6 times the edge count plus 0.1 on G(4, 1) at k = 0: the empty graph's 0.1
    splits over six dyads with rounding."""
    space = build_multigraph_space(4, 1)
    return _dyadditive(space, scale * (1e6 * edge_total_table(space) + 0.1))


def dyadically_multiplicative(scale):
    space = build_multigraph_space(4, 1)
    idx = np.arange(space.size)
    tables = np.random.default_rng(1).uniform(0.5, 2.0, size=(num_dyads(4), 2))
    kappa = scale * _fold(tables, dyad_counts(space, idx), idx, np.multiply)
    moved = kappa.copy()
    moved[-1] += 10 * RECONSTRUCTION_TOL * magnitude(kappa)
    return lambda k: factor_dyadically_multiplicative(space, k).ok, kappa, moved


def exchangeable(scale):
    """h is a weighted sum of the sorted degrees, added forwards on even states and
    backwards on odd ones."""
    space = build_multigraph_space(4, 1)
    classes = iso_classes(space)
    terms = sorted_degree_table(space) * (scale * np.random.default_rng(4).normal(size=4))
    h = np.where(np.arange(space.size) % 2 == 0, terms.sum(axis=1), terms[:, ::-1].cumsum(axis=1)[:, -1])
    member = next(members[1] for members in classes.classes if members.size > 1)
    moved = h.copy()
    moved[member] += 10 * EXCHANGE_TOL * magnitude(h)
    return lambda v: is_finitely_exchangeable(v, classes)[0], h, moved


def row_expectations(scale):
    mef = _scalar_mef(scale)
    theta = 0.3 / scale
    tau = mef.tau.copy()
    tau[1] += 10 * ROW_CONSISTENCY_TOL * magnitude(mean_parameter(mef, theta).value)
    moved = MefSpec(space=mef.space, kappa=mef.kappa, tau=tau, eta=mef.eta, verified_mef=True)
    return lambda m: _passes(lambda: mean_parameter(m, theta), NotAnMefError), mef, moved


def finite_difference(scale):
    mef = _scalar_mef(scale)
    return lambda m: _passes(lambda: mean_parameter(m, 0.3 / scale), TheoremViolationError), mef, None


def carrier_puniformity(scale):
    """kappa and tau both scale; the probes scale by 1 / scale, as theta does."""
    space, fam, kappa = _spread(3, np.multiply, np.random.default_rng(3).uniform(0.5, 2.0, size=(3, 2)))
    kappa *= scale
    moved = kappa.copy()
    moved[1, 3] += 10 * DETECT_TOL * kappa.max()
    tau = _spread(3, np.add, _statistic_tables(3, scale))[2]
    eta = ParameterMap("natural")

    def verdict(k):
        cef = CefSpec(space=space, kappa=k, tau=tau, eta=eta)
        return kappa_tau_puniformity(cef, fam, [theta / scale for theta in default_probes(eta)]).kappa_puniform
    return verdict, kappa, moved


def row_value_sets(scale):
    space, _, tau = _spread(3, np.add, _statistic_tables(3, scale))
    moved = tau.copy()
    moved[1, np.argmax(tau[1])] += 10 * MEF_REL_TOL * magnitude(tau)

    def verdict(t):
        return gani_row_value_sets(CefSpec(space=space, kappa=np.ones(t.shape), tau=t, eta=ParameterMap("natural")))[1]
    return verdict, tau, moved


CASES = [puniform_table, dyadditive, dyadditive_on_four_vertices, edge_count_and_a_constant,
         dyadically_multiplicative, exchangeable, row_expectations, finite_difference, carrier_puniformity,
         row_value_sets]


@pytest.mark.parametrize("k", range(-8, 9))
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_a_verdict_on_unbounded_values_holds_at_every_scale(case, k):
    verdict, true, moved = case(10.0 ** k)
    assert verdict(true)
    assert moved is None or not verdict(moved)
