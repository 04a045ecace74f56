"""A record of the density tables a continuous evaluation builds and reads.

ContinuousEvaluator.forms integrates every point on the first tier of
quadrature.panel_ladder and each next tier only for the points whose
Gauss-Kronrod gap failed on the tier before. LadderLog wraps the kernel
table's constructor and integrate for the length of a test, and
climbs_only_on_failure checks that order from the outside.
"""

import numpy as np

from betamix import mixtures
from betamix.quadrature import REL_TOL, panel_ladder

LADDER = panel_ladder()


class LadderLog:
    """Every kernel table built, with its tier, and every batch of points integrated on one, with their gaps.

    built holds (tier, table) in build order, and steps (tier, x, gap) in
    integration order. The tables stay referenced here, so the identity a
    step is matched by is never reused.
    """

    def __init__(self, monkeypatch):
        self.built, self.steps = [], []
        init, integrate = mixtures._KernelTable.__init__, mixtures._KernelTable.integrate
        tiers = {}

        def recording_init(table, unit, peak, per_unit):
            init(table, unit, peak, per_unit)
            tiers[id(table)] = per_unit
            self.built.append((per_unit, table))

        def recording_integrate(table, x):
            rows, gap = integrate(table, x)
            self.steps.append((tiers[id(table)], np.array(x), gap.copy()))
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

    def climbs_only_on_failure(self) -> bool:
        """Whether each climb reads the tiers in ladder order, each next one for exactly the points that failed.

        A climb ends where every gap passes, or on the top tier. Every
        table built is read by some step.
        """
        for climb in self.climbs():
            for (tier, x, gap), (after, x_after, _) in zip(climb, climb[1:]):
                if after != LADDER[LADDER.index(tier) + 1]:
                    return False
                if not np.array_equal(x_after, x[~(gap <= REL_TOL)]):
                    return False
            tier, _, gap = climb[-1]
            if not (np.all(gap <= REL_TOL) or tier == LADDER[-1]):
                return False
        read = {tier for tier, _, _ in self.steps}
        return all(tier in read for tier in self.tiers_built)
