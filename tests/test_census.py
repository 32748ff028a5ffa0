"""The convergence census: 50 gate-accepted pairs at the default density.

The pairs are every 23rd gate-accepted pair of the bench's gate table
(``perfbench/gate_verdicts.txt``), from offsets 0 and 11, each run to a cap
of 40 records at the default sampling.  The sampling reaches (u, v) only
through branch choices, so this census is what the defaults of
``IterateOptions`` are chosen on.  A pair that converges must go on
converging to the committed map; a change of defaults or of the engine that
loses one fails here.  Of the other 30 pairs, 20 converge today (each
through a Newton finish tried when the step stalls) and 10 end ``diverged``;
none may ever end in a gate refusal or an exception.  Their status and map
are not pinned until an independent check backs the maps, so a change that
makes one of them converge, or stop converging, does not fail the census.

Deselect it with ``-m "not slow"`` for a quick run; it takes about 20 s.
"""

import pytest

from quadmate.angles import Angle
from quadmate.engine import IterateOptions, iterate
from quadmate.ratmap import chordal

pytestmark = pytest.mark.slow

CAP = 40
TOL = 1e-9

# (alpha, beta): the committed (u, v), to 12 decimals; None is infinity
CONVERGING = {
    ("1/24", "17/24"): (0.620786718218+0.885908359628j, -2.199677022655-0.245461316460j),
    ("1/14", "13/28"): (0.769822830322+0.488094160598j, 0j),
    ("1/8", "5/8"): (0.468906782068+1.149583144402j, -1.355473023108-0.401383290103j),
    ("5/32", "11/32"): (0.367236895045+0.980177368001j, -0.367236895045-0.980177368001j),
    ("5/28", "11/28"): (0.572726057081+1.302118939503j, -0.047236742502-0.574824762688j),
    ("17/32", "27/32"): (-0.883769838913-0.008498382984j, 0.306324613200+0.389987836302j),
    ("19/32", "13/16"): (None, 0.494486937750+0.506200492360j),
    ("13/20", "7/10"): (None, 0.277362994783+0.635254679205j),
    ("11/16", "7/8"): (-0.219161882698-0.600498410281j, 0.515665234973+1.150155802061j),
    ("3/4", "25/32"): (0.120071473302-1.118085143214j, -0.096415376793+0.708815793253j),
    ("13/16", "7/8"): (0.203950775840-0.679570615788j, 0.776402967582+1.365261735243j),
    ("1/8", "1/4"): (0.353894771711+0.632794380461j, -0.058450504915-1.312087494508j),
    ("3/16", "7/16"): (1.587979960352+0.997900423174j, -1.025481312185+0.532218660626j),
    ("7/32", "1/4"): (-0.188415885392+1.385174851861j, 0.094953323754-0.884189205555j),
    ("1/4", "5/16"): (-0.134086388144+1.112234339375j, -0.378137015629-1.060813901041j),
    ("9/16", "25/32"): (-0.477538928928+0.029831743347j, 0.398829784801-0.140741356870j),
    ("5/8", "3/4"): (None, 0.419643377607+0.606290729207j),
    ("17/24", "11/12"): (-0.080718798378-0.502910888876j, 0.814725048955+1.123802675181j),
    ("25/32", "7/8"): (0.331795810045-0.958817570542j, 0.930678909136+1.201069900998j),
    ("27/32", "29/32"): (0.159778272406-0.534892816036j, 0.943461624246+1.267767143020j),
}
NOT_CONVERGING = [
    ("1/32", "1/32"), ("1/32", "3/4"), ("1/16", "3/8"), ("3/32", "7/16"),
    ("1/10", "19/20"), ("3/16", "31/32"), ("7/32", "5/8"), ("1/4", "11/16"),
    ("7/24", "7/24"), ("5/16", "23/32"), ("11/32", "31/32"),
    ("13/32", "23/32"), ("15/32", "3/4"), ("9/10", "9/10"), ("1/32", "3/8"),
    ("1/28", "5/28"), ("1/20", "17/20"), ("1/16", "23/32"), ("1/12", "23/24"),
    ("3/32", "25/32"), ("3/20", "3/10"), ("5/32", "11/16"), ("9/32", "15/32"),
    ("5/16", "5/16"), ("9/28", "17/28"), ("3/8", "3/4"), ("7/16", "23/32"),
    ("1/2", "25/32"), ("21/32", "29/32"), ("31/32", "31/32"),
]


def _run(alpha, beta):
    return iterate(Angle.parse(alpha), Angle.parse(beta), IterateOptions(max_iters=CAP))


@pytest.mark.parametrize("alpha,beta", list(CONVERGING))
def test_converges_to_the_committed_map(alpha, beta):
    report = _run(alpha, beta)
    assert report.status == "converged", report.message
    u, v = CONVERGING[alpha, beta]
    last = report.records[-1]
    assert chordal(last.u, u) < TOL
    assert chordal(last.v, v) < TOL


@pytest.mark.parametrize("alpha,beta", NOT_CONVERGING)
def test_other_pairs_run_without_a_refusal(alpha, beta):
    report = _run(alpha, beta)
    assert report.status in ("converged", "diverged", "max-iterations"), report.message
