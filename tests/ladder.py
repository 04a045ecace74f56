"""A record of the density tables a continuous evaluation builds and reads.

ContinuousEvaluator.forms integrates every point on the first tier of
quadrature.panel_ladder and each next tier only for the points whose
Gauss-Kronrod gap failed on the tier before, skipping a tier whose layout
has as many nodes as the last one integrated. LadderLog wraps the kernel
table's constructor and integrate for the length of a test, and
climbs_only_on_failure checks that order from the outside.
"""

import numpy as np

from betamix import mixtures
from betamix.quadrature import REL_TOL, panel_ladder, panel_nodes

LADDER = panel_ladder()


class LadderLog:
    """Every kernel table built, with its tier, and every batch of points integrated on one, with their gaps.

    built holds (tier, table) in build order, and steps (tier, x, gap) in
    integration order, with the table each step read in read. The tables
    stay referenced here, so the identity a step is matched by is never
    reused.
    """

    def __init__(self, monkeypatch):
        self.built, self.steps, self.read = [], [], []
        init, integrate = mixtures._KernelTable.__init__, mixtures._KernelTable.integrate
        tiers, self._units = {}, {}

        def recording_init(table, unit, peak, per_unit):
            init(table, unit, peak, per_unit)
            tiers[id(table)], self._units[id(table)] = per_unit, unit
            self.built.append((per_unit, table))

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

    def _repeats(self, table, tiers) -> bool:
        """Whether each of tiers lays out as many nodes as table over the knot grid it was built on."""
        unit = self._units[id(table)]
        return all(panel_nodes(unit.knots, unit.log_alpha, tier)[0].size == table.s.size for tier in tiers)

    def climbs_only_on_failure(self) -> bool:
        """Whether each climb reads the tiers in ladder order, each next one for exactly the points that failed.

        A tier a climb skips lays out as many nodes as the last table it
        read, so it is that layout again and passes its points on unchanged.
        A climb ends where every gap passes, or on the top tier, read or
        skipped. Every table built is read by some step, or repeats the
        layout of the tier below it.
        """
        read = iter(self.read)
        for climb in self.climbs():
            tables = [next(read) for _ in climb]
            for (tier, x, gap), (after, x_after, _), table in zip(climb, climb[1:], tables):
                i, j = LADDER.index(tier), LADDER.index(after)
                if not (i < j and self._repeats(table, LADDER[i + 1 : j])):
                    return False
                if not np.array_equal(x_after, x[~(gap <= REL_TOL)]):
                    return False
            tier, _, gap = climb[-1]
            if not (np.all(gap <= REL_TOL) or self._repeats(tables[-1], LADDER[LADDER.index(tier) + 1 :])):
                return False
        read = {id(table) for table in self.read}
        return all(id(table) in read or (tier != LADDER[0] and self._repeats(table, [LADDER[LADDER.index(tier) - 1]]))
                   for tier, table in self.built)
