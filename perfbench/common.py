"""Workload inputs and reference data shared by run.py and worker.py.

Standard library only, and nothing here imports quadmate: worker.py loads this
module before it starts the set-up clock.
"""

from __future__ import annotations

import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# a frozen copy of quadmate 0.1.0 (src/quadmate at the commit that added the
# benchmark), run as the yardstick that every pass is timed against
YARDSTICK = os.path.join(HERE, "yardstick")
# sha256 of the yardstick's sources (see yardstick_digest); a changed
# yardstick would silently rescale solve_s and setup_s
YARDSTICK_DIGEST = "39382912a018a86e79dff6c8a1dec6dab22480e01fc68db37dabade28f845ed4"
# The yardstick's times on the workloads, which solve_s and setup_s are
# scaled to: medians of its segment sums (20 mate-ex2 and 5 census passes)
# and of its set-up processes on a 2-vCPU KVM guest with Python 3.11.7.
YARDSTICK_S = {"mate-ex2": 10.16, "census": 17.15}
YARDSTICK_SETUP_S = {"mate-ex2": 0.0979, "census": 0.0965}

WORKLOADS = ("mate-ex2", "census")
# Rounds per run, each a program pass and a yardstick pass run as twins.
# The count is fixed, so a faster program does not also get more repeats.
ROUNDS = {"mate-ex2": 2, "census": 1}
# rounds of a --trace 1 run, each an untraced and a traced pass as twins
TRACE_ROUNDS = {"mate-ex2": 2, "census": 1}

# mate-ex2: the paper's worked example through the README's command line.
# 30 iterations is the smallest cap the workload allows; the run stops there
# (the increment is still ~1e-2), so fewer and faster iterations both show.
EX2_PAIR = ("1/4", "1/8")
EX2_CAP = 30
# The pullback contracts by ~0.9324 per step; at 30 iterations quadmate 0.1.0
# is 3.9e-2 from the reference, so twice that flags a broken engine while any
# faster-converging one passes.
EX2_UV_ERR_BOUND = 0.08

# The committed solution (u*, v*) of the (1/4, 1/8) critical-orbit relations
# F(u) = -1 and F(v) = -u, to 12 decimals.
REF_U = complex(-0.033884546031, 0.760634816925)
REF_V = complex(0.673225810672, -1.203785825132)
REF_RESIDUAL_BOUND = 1e-13

# census, gate part: a seeded sample of shallow pairs, then two deep pairs
# whose co-landing scan enumerates 2^p candidates (period 9 and 10).
GATE_SAMPLE = 200
DEEP_PAIRS = ((("1/4", "1/1022"), "subdivision"), (("5/18", "1/22"), "subdivision"))

# census, mate part: every 138th gate-accepted pair of the table (five pairs,
# three of which diverge in quadmate 0.1.0) plus the (1/4, 1/4) control, each
# iterated to a short cap at reduced density.  The stride keeps a census pass
# near 15 s, so a run repeats it several times.
CENSUS_STRIDE = 138
CENSUS_CAP = 20
CENSUS_SAMPLES = 32
CENSUS_BUDGET = 2048
CONTROL_PAIR = ("1/4", "1/4")
CONTROL_U, CONTROL_V = 1j, -1j
CONTROL_TOL = 1e-9

VERDICTS = ("accepted", "conjugate", "pinched", "subdivision")
# tallies of the committed table, checked whenever it is loaded
VERDICT_TALLY = {"accepted": 564, "conjugate": 634, "pinched": 740, "subdivision": 1548}


def yardstick_digest() -> str:
    """sha256 over the yardstick package's file names and contents."""
    import hashlib

    top = os.path.join(YARDSTICK, "quadmate")
    h = hashlib.sha256()
    for name in sorted(os.listdir(top)):
        if name.endswith(".py"):
            with open(os.path.join(top, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def load_table() -> list[tuple[str, str, str]]:
    """The committed verdict table as (alpha, beta, verdict) in table order."""
    rows = []
    with open(os.path.join(HERE, "gate_verdicts.txt")) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            alpha, beta, verdict = line.split()
            rows.append((alpha, beta, verdict))
    tally = {v: sum(1 for r in rows if r[2] == v) for v in VERDICTS}
    if len(rows) != 3486 or tally != VERDICT_TALLY:
        raise ValueError(f"gate_verdicts.txt is damaged: {len(rows)} rows, {tally}")
    return rows


def verdict_class(reason: str | None) -> str:
    """Map a ``structural_gates`` result onto the table's verdict names."""
    if reason is None:
        return "accepted"
    head = reason.split(":", 1)[0]
    for name, prefix in (
        ("conjugate", "conjugate limbs"),
        ("pinched", "pinched curve"),
        ("subdivision", "subdivision failure"),
    ):
        if head == prefix:
            return name
    return f"other ({head})"


def gate_sample(rows, seed: int) -> list[int]:
    """Table indices of the shallow pairs one seed gates, in table order."""
    return sorted(random.Random(seed).sample(range(len(rows)), GATE_SAMPLE))


def census_pairs(rows, seed: int) -> list[tuple[str, str]]:
    """The pairs the census iterates; the seed only fixes the order they run in."""
    accepted = [(a, b) for a, b, v in rows if v == "accepted"]
    pairs = accepted[::CENSUS_STRIDE] + [CONTROL_PAIR]
    random.Random(seed).shuffle(pairs)
    return pairs


def chordal(a: complex, b: complex) -> float:
    return 2.0 * abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def _relations(u: complex, v: complex) -> tuple[complex, complex]:
    # F(z) = ((u-1) v z^2 - u (v-1)) / ((u-1) z^2 - (v-1)); the relations
    # F(u) = -1 and F(v) = -u with the denominators cleared
    e1 = (u - 1) * v * u * u - u * (v - 1) + (u - 1) * u * u - (v - 1)
    e2 = (u - 1) * v ** 3 + u * (u - 1) * v * v - 2 * u * (v - 1)
    return e1, e2


def relation_residual(u: complex, v: complex) -> float:
    """|F(u) + 1| + |F(v) + u| for the normalized quadratic with values u, v."""

    def f(z):
        return ((u - 1) * v * z * z - u * (v - 1)) / ((u - 1) * z * z - (v - 1))

    return abs(f(u) + 1) + abs(f(v) + u)


def polished_reference() -> tuple[complex, complex, float, float]:
    """Newton-polish the committed (u*, v*) on the critical-orbit relations.

    Returns the polished pair, its relation residual and how far polishing
    moved it from the committed digits.  Independent of the engine: plain
    complex arithmetic with the analytic Jacobian.
    """
    u, v = REF_U, REF_V
    for _ in range(6):
        e1, e2 = _relations(u, v)
        a = v * (3 * u * u - 2 * u) - v + 1 + 3 * u * u - 2 * u  # de1/du
        b = u ** 3 - u * u - u - 1  # de1/dv
        c = v ** 3 + (2 * u - 1) * v * v - 2 * (v - 1)  # de2/du
        d = 3 * (u - 1) * v * v + 2 * u * (u - 1) * v - 2 * u  # de2/dv
        det = a * d - b * c
        u, v = u - (e1 * d - b * e2) / det, v - (a * e2 - c * e1) / det
    moved = max(abs(u - REF_U), abs(v - REF_V))
    return u, v, relation_residual(u, v), moved


def parse_sig12(text: str) -> complex | None:
    """Inverse of the CLI's ``re +/- im i`` rendering; None for ``inf``."""
    text = text.strip()
    if text == "inf":
        return None
    re_part, sign, im_part = text.split()
    im = float(im_part.rstrip("i"))
    return complex(float(re_part), -im if sign == "-" else im)
