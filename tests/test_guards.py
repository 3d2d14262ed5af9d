"""Input guards: each refuses a bad argument with its own exception and message."""

import pytest

from gbei.formulas import generalized_bei, pair_ideal
from gbei.graphs import PartiteSpec, complete_graph
from gbei.groebner import (Ideal, ideals_equal, initial_ideal, intersect,
                           normal_form, spolynomial)
from gbei.hilbert import HilbertSeries, MonomialIdeal
from gbei.rings import Ring, TermOrder
from gbei.verify import verify

R = Ring(2, 2)
OTHER = Ring(2, 3)
LEX = TermOrder.lex_row_major(R)

GUARDS = {
    "pair_ideal-grid": (
        lambda: pair_ideal(complete_graph(2), complete_graph(3), R),
        ValueError, "ring grid does not match"),
    "generalized_bei-m": (
        lambda: generalized_bei(1, complete_graph(2)),
        ValueError, "m must be at least 2"),
    "normal_form-ring": (
        lambda: normal_form(R.variable(1, 1), [OTHER.variable(1, 1)], LEX),
        ValueError, "ring mismatch"),
    "spolynomial-zero": (
        lambda: spolynomial(R.zero(), R.variable(1, 1), LEX),
        ValueError, "zero polynomial has no leading term"),
    "initial_ideal-empty": (
        lambda: initial_ideal([], LEX),
        ValueError, "empty basis"),
    "ideals_equal-rings": (
        lambda: ideals_equal(Ideal(R, []), Ideal(OTHER, [])),
        ValueError, "ring mismatch"),
    "intersect-rings": (
        lambda: intersect(Ideal(R, []), Ideal(OTHER, [])),
        ValueError, "ring mismatch"),
    "MonomialIdeal-length": (
        lambda: MonomialIdeal(2, [(1, 0, 0)]),
        ValueError, "wrong length for 2 variables"),
    "HilbertSeries-pole": (
        lambda: HilbertSeries([1], -1),
        ValueError, "pole order must be nonnegative"),
    "Ring-empty": (
        lambda: Ring(0, 2),
        ValueError, "grid must be nonempty"),
    "Ring.var_index-range": (
        lambda: R.var_index(3, 1),
        IndexError, "x[3,1] outside 2x2 grid"),
    "leading_monomial-zero": (
        lambda: R.zero().leading_monomial(LEX),
        ValueError, "zero polynomial has no leading term"),
    "Poly-rings": (
        lambda: R.variable(1, 1) + OTHER.variable(1, 1),
        ValueError, "ring mismatch"),
    "InvariantReport.row-name": (
        lambda: verify(PartiteSpec(2, (1, 1))).row("height"),
        KeyError, "height"),
}


@pytest.mark.parametrize("call, error, fragment", GUARDS.values(),
                         ids=list(GUARDS))
def test_a_guard_refuses_its_bad_input(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
