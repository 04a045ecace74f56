"""A record of the density tables a continuous evaluation builds and reads.

ContinuousEvaluator.forms integrates every point on the table of the first
panel layout of quadrature.panel_ladder and each next distinct layout only
for the points whose Gauss-Kronrod gap failed on the one before; a tier
that lays out the same nodes and weights as the tier below is no new
layout. LadderLog wraps the kernel table's constructor and integrate for the
length of a test, and climbs_only_on_failure checks that order from the
outside, by laying each tier out itself.
"""

import numpy as np

from betamix import mixtures
from betamix.quadrature import PANEL_NODES, REL_TOL, panel_counts, panel_ladder, panel_nodes

LADDER = panel_ladder()


def tier_layout(unit, tier):
    """panel_nodes' (nodes, kronrod weights, gauss weights) over unit's knot grid at tier panels per unit of s."""
    return panel_nodes(unit.knots, panel_counts(unit.knots, unit.log_alpha, tier))


def same_layout(a, b) -> bool:
    """Whether two layouts hold the same nodes and weights, bit for bit."""
    return all(u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in zip(a, b))


class LadderLog:
    """Every kernel table built, with its tier, and every batch of points integrated on one, with their gaps.

    built holds (tier, table) in build order, and steps (tier, x, gap) in
    integration order, with the table each step read in read. A table's
    tier is the lowest whose layout has as many nodes; climbs_only_on_failure
    checks that the table holds that layout. The tables stay referenced
    here, so the identity a step is matched by is never reused.
    """

    def __init__(self, monkeypatch):
        self.built, self.steps, self.read = [], [], []
        self._tier_layouts = {}
        init, integrate = mixtures._KernelTable.__init__, mixtures._KernelTable.integrate
        tiers, self._units = {}, {}

        def recording_init(table, unit, peak, s, wk, wg):
            init(table, unit, peak, s, wk, wg)
            sizes = (PANEL_NODES * panel_counts(unit.knots, unit.log_alpha, t).sum() for t in LADDER)
            tier = next((t for t, size in zip(LADDER, sizes) if size == s.size), None)
            tiers[id(table)], self._units[id(table)] = tier, unit
            self.built.append((tier, table))

        def recording_integrate(table, x):
            rows, gap = integrate(table, x)
            self.steps.append((tiers[id(table)], np.array(x), gap.copy()))
            self.read.append(table)
            return rows, gap

        monkeypatch.setattr(mixtures._KernelTable, "__init__", recording_init)
        monkeypatch.setattr(mixtures._KernelTable, "integrate", recording_integrate)

    @property
    def tiers_built(self):
        return [tier for tier, _ in self.built]

    def climbs(self):
        """The steps split into one climb per forms call: each starts on the first tier."""
        climbs = []
        for step in self.steps:
            if step[0] == LADDER[0]:
                climbs.append([])
            climbs[-1].append(step)
        return climbs

    def _layout(self, unit, tier):
        """tier_layout(unit, tier), laid out once per log and kept with its unit, so the key's identity is not reused."""
        key = id(unit), tier
        if key not in self._tier_layouts:
            self._tier_layouts[key] = unit, tier_layout(unit, tier)
        return self._tier_layouts[key][1]

    def _next_tier(self, unit, tier):
        """The lowest tier above tier whose layout differs from tier's; None if none does."""
        here = self._layout(unit, tier)
        return next((t for t in LADDER[LADDER.index(tier) + 1 :] if not same_layout(self._layout(unit, t), here)), None)

    def climbs_only_on_failure(self) -> bool:
        """Whether each table built is read once, each climb reading the distinct layouts in order, for the points that failed.

        Each table is read by the step after its build, and holds its tier's
        layout. A climb starts on the first tier, and each next step reads
        the next tier whose layout differs from the last one read, for the
        points whose gap failed. A climb ends where every gap passes, or on
        the last distinct layout.
        """
        if [id(table) for _, table in self.built] != [id(table) for table in self.read]:
            return False
        tables = iter(self.read)
        for climb in self.climbs():
            for step, after in zip(climb, climb[1:] + [None]):
                tier, x, gap = step
                table = next(tables)
                unit = self._units[id(table)]
                if tier is None or not same_layout((table.s, table.wk, table.wg), self._layout(unit, tier)):
                    return False
                if after is None:
                    if not (np.all(gap <= REL_TOL) or self._next_tier(unit, tier) is None):
                        return False
                elif after[0] != self._next_tier(unit, tier) or not np.array_equal(after[1], x[~(gap <= REL_TOL)]):
                    return False
        return True
