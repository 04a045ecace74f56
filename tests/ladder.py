"""A record of the moment passes a continuous evaluation makes.

ContinuousEvaluator.forms integrates every point on the first panel layout
of quadrature.panel_ladder, by one mixtures._moments call, and each next
distinct layout only for the points whose Gauss-Kronrod gap failed on the
one before; a tier that lays out the same nodes and weights as the tier
below is no new layout. LadderLog wraps _moments for the length of a test,
and climbs_only_on_failure checks that order from the outside, by laying
each tier out itself.
"""

import numpy as np

from betamix import mixtures
from betamix.quadrature import REL_TOL, panel_counts, panel_ladder, panel_nodes

LADDER = panel_ladder()


def tier_layout(unit, tier):
    """panel_nodes' (nodes, kronrod weights, gauss weights) over unit's knot grid at tier panels per unit of s."""
    return panel_nodes(unit.knots, panel_counts(unit.knots, unit.log_alpha, tier))


def same_layout(a, b) -> bool:
    """Whether two layouts hold the same nodes and weights, bit for bit."""
    return all(u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in zip(a, b))


class LadderLog:
    """Every _moments call, in call order: (unit, layout, x, gap).

    steps gives each call as (tier, x, gap), its tier the lowest of the
    ladder whose own layout is the call's, bit for bit (None if there is
    none). The tiers are laid out only when steps is read, so a traced
    window counts none of them. The units stay referenced here, so the
    identity a laid-out tier is keyed by is never reused.
    """

    def __init__(self, monkeypatch):
        self.calls, self._tier_layouts = [], {}
        moments = mixtures._moments

        def recording_moments(unit, peak, s, wk, wg, x):
            rows, gap = moments(unit, peak, s, wk, wg, x)
            self.calls.append((unit, (s, wk, wg), np.array(x), gap.copy()))
            return rows, gap

        monkeypatch.setattr(mixtures, "_moments", recording_moments)

    @property
    def steps(self):
        return [(self._tier(unit, layout), x, gap) for unit, layout, x, gap in self.calls]

    @property
    def tiers(self):
        return [tier for tier, _, _ in self.steps]

    @property
    def nodes(self):
        """The node count of each call's layout."""
        return [layout[0].size for _, layout, _, _ in self.calls]

    def climbs(self):
        """The steps, each with its call's unit, split into one climb per forms call: each starts on the first tier."""
        climbs = []
        for step, (unit, *_) in zip(self.steps, self.calls):
            if step[0] == LADDER[0]:
                climbs.append([])
            climbs[-1].append((*step, unit))
        return climbs

    def _layout(self, unit, tier):
        """tier_layout(unit, tier), laid out once per log."""
        key = id(unit), tier
        if key not in self._tier_layouts:
            self._tier_layouts[key] = tier_layout(unit, tier)
        return self._tier_layouts[key]

    def _tier(self, unit, layout):
        return next((t for t in LADDER if same_layout(self._layout(unit, t), layout)), None)

    def _next_tier(self, unit, tier):
        """The lowest tier above tier whose layout differs from tier's; None if none does."""
        here = self._layout(unit, tier)
        return next((t for t in LADDER[LADDER.index(tier) + 1 :] if not same_layout(self._layout(unit, t), here)), None)

    def climbs_only_on_failure(self) -> bool:
        """Whether each climb reads the distinct layouts in order, each for the points that failed the one before.

        Every call's layout is some tier's. A climb starts on the first
        tier, and each next step reads the next tier whose layout differs
        from the last one read, for the points whose gap failed. A climb
        ends where every gap passes, or on the last distinct layout.
        """
        for climb in self.climbs():
            for (tier, x, gap, unit), after in zip(climb, climb[1:] + [None]):
                if tier is None:
                    return False
                if after is None:
                    if not (np.all(gap <= REL_TOL) or self._next_tier(unit, tier) is None):
                        return False
                elif after[3] is not unit or after[0] != self._next_tier(unit, tier):
                    return False
                elif not np.array_equal(after[1], x[~(gap <= REL_TOL)]):
                    return False
        return True
