"""Suites of maximal pyramid weights: the closed form against the knapsack DP
and the exhaustive searches, and its growth in the frame and the colength."""

from __future__ import annotations

from itertools import groupby
from math import comb

from .. import pyramids
from ..errors import DomainError


def suite_pyramid_oracle(max_frame: int):
    """Closed-form maximal pyramid weight against the knapsack DP, one table per
    frame with a witness per d that must have colength d and the DP's weight; the
    DP (weight and witness) against the exhaustive search at small frames."""
    if max_frame < 1:
        raise DomainError(f"need max_frame >= 1, got {max_frame}")
    for c in range(1, max_frame + 1):
        table = pyramids.WeightTable.build(c)
        for d in range(1, c + 1):
            found = []
            best, witness = table.witness(d)
            closed = pyramids.max_weight_closed_form(c, d)
            if closed != best:
                found.append(({"c": c, "d": d}, closed, best))
            if (witness.colength, witness.weight()) != (d, best):
                found.append(({"c": c, "d": d, "check": "witness"}, [d, best], [witness.colength, witness.weight()]))
            if c <= pyramids.TOP_SEGMENT_FRAME_CAP:  # the exhaustive search guards every frame its budget allows
                exhaustive = pyramids.brute_force_max_weight(c, d)
                if exhaustive != (best, witness):
                    found.append(({"c": c, "d": d, "guard": "exhaustive"}, _weight_and_columns(*exhaustive),
                                  _weight_and_columns(best, witness)))
            # a maximal top-segment witness never has a step of breadth >= 4
            avec = witness.initial_degrees()
            runs = [len(list(g)) for a, g in groupby(avec) if a > 0]
            if any(b >= 4 for b in runs):
                found.append(({"c": c, "d": d, "witness": list(avec)}, "steps < 4", runs))
            yield found
    yield from _hand_table()


def suite_pyramid_oracle_full(max_frame: int):
    """The DP's reduction to top segments: the heaviest subset of [0, c-1] missing d
    entries, by a DP over its elements, weighs as [d, c-1]; at small frames the search
    over all column subsets finds the DP's weight, by a witness of colength d."""
    if max_frame < 1:
        raise DomainError(f"need max_frame >= 1, got {max_frame}")
    top = [0] * (max_frame + 1)  # top[k]: the largest sum of k distinct elements of [0, c-1], each sum >= 0
    for c, e in enumerate(range(max_frame), 1):  # frame c adds the element e = c - 1
        for k in range(c, 0, -1):
            top[k] = max(top[k], top[k - 1] + e)
        best = pyramids.WeightTable.build(c).best[0] if c <= pyramids.FULL_SUBSET_FRAME_CAP else None
        for d in range(1, c + 1):
            heaviest, segment = top[c - d] - comb(c - d, 2), pyramids.column_weight(range(d, c))
            found = [] if heaviest == segment else [({"c": c, "d": d, "column": c - 1}, segment, heaviest)]
            if best:  # the witnesses may differ by tie-break, so the weights are compared
                w, witness = pyramids.brute_force_max_weight(c, d, full_subsets=True)
                if (w, witness.colength, witness.weight()) != (best[d], d, best[d]):
                    found.append(({"c": c, "d": d, "guard": "exhaustive"}, [best[d], d, best[d]],
                                  [w, witness.colength, witness.weight()]))
            yield found
    yield from _hand_table()


def _hand_table():
    table = {(2, 1): 1, (2, 2): 1, (3, 1): 2, (3, 2): 3, (3, 3): 3, (4, 1): 3, (4, 2): 5, (4, 3): 6, (4, 4): 7}
    for (c, d), want in sorted(table.items()):
        got = pyramids.max_weight_closed_form(c, d)
        yield () if got == want else (({"c": c, "d": d}, want, got),)


def _weight_and_columns(weight, pyramid) -> tuple:
    return weight, [sorted(col) for col in pyramid.columns]


def suite_prop_4_1(max_frame_closed: int, max_frame_oracle: int):
    """Maximal weight at colength = frame stays below (c-1)^2."""
    for c in range(1, max_frame_closed + 1):
        w = pyramids.max_weight_closed_form(c, c)
        yield () if w <= (c - 1) ** 2 else (({"c": c}, f"<= {(c - 1) ** 2}", w),)
    for c in range(1, max_frame_oracle + 1):
        w, _ = pyramids.max_weight_dp(c, c)
        yield () if w <= (c - 1) ** 2 else (({"c": c, "oracle": True}, f"<= {(c - 1) ** 2}", w),)


def suite_pyramid_monotonic(max_frame: int):
    """Monotonicity of the closed form in the frame and in the colength."""
    # w[c][d] for 1 <= d <= c <= max_frame, each value computed once
    w = [[None] + [pyramids.max_weight_closed_form(c, d) for d in range(1, c + 1)] for c in range(max_frame + 1)]
    for d in range(1, max_frame + 1):
        for c in range(d, max_frame):
            lo, hi = w[c][d], w[c + 1][d]
            yield () if lo < hi else (({"c": c, "d": d, "direction": "frame"}, f"< {hi}", lo),)
    for c in range(1, max_frame + 1):
        strict = c >= 5
        for d in range(1, c):
            lo, hi = w[c][d], w[c][d + 1]
            ok = lo < hi if strict else lo <= hi
            yield () if ok else (({"c": c, "d": d, "direction": "colength"}, "increasing", (lo, hi)),)


def suite_endpoint(c: int, max_n: int):
    for n in range(1, max_n + 1):
        yield () if pyramids.endpoint_consistency(c, n) else (({"c": c, "n": n}, True, False),)
