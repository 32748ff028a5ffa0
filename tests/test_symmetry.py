"""Swap and mirror oracles over the 50 pairs of the convergence census.

Swapping the colours conjugates F_{u,v} by 1/z, so (beta, alpha) must reach
(1/v, 1/u); mirroring conjugates it by complex conjugation, so
(1 - alpha, 1 - beta) must reach (conj u, conj v).  Both relations hold
exactly for the mating and depend on no threshold of the engine.  They are
checked on each pair whose run, swap and mirror all converge; the others are
skipped, because the engine's status does not yet agree under these
symmetries (a pair may converge while its swap diverges).

Deselect it with ``-m "not slow"`` for a quick run.
"""

import pytest

from quadmate.angles import Angle
from quadmate.engine import IterateOptions, iterate
from quadmate.ratmap import chordal
from test_census import CAP, CONVERGING, NOT_CONVERGING

pytestmark = pytest.mark.slow

GAP = 1e-12


def _swapped(z):
    return None if z == 0 else 0j if z is None else 1 / z


def _conjugate(z):
    return None if z is None else z.conjugate()


def _map(alpha, beta):
    """The converged (u, v) of the pair, or the status it ended with."""
    report = iterate(alpha, beta, IterateOptions(max_iters=CAP))
    if report.status != "converged":
        return report.status
    return report.records[-1].u, report.records[-1].v


@pytest.mark.parametrize("alpha,beta", list(CONVERGING) + NOT_CONVERGING)
def test_swap_and_mirror_reach_the_conjugate_maps(alpha, beta):
    a, b = Angle.parse(alpha), Angle.parse(beta)
    runs = {}
    for name, pair in (("run", (a, b)), ("swap", (b, a)), ("mirror", (a.mirror(), b.mirror()))):
        runs[name] = _map(*pair)
        if isinstance(runs[name], str):
            pytest.skip(f"the {name} ended {runs[name]}")
    (u, v), (su, sv), (mu, mv) = runs["run"], runs["swap"], runs["mirror"]
    assert chordal(su, _swapped(v)) < GAP and chordal(sv, _swapped(u)) < GAP
    assert chordal(mu, _conjugate(u)) < GAP and chordal(mv, _conjugate(v)) < GAP
