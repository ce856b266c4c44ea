"""Filter, then search — the query BFL and GRAIL share.

Both keep a *partial* index over the SCC condensation: a label
test that confirms or refutes most pairs outright, and for the rest a
DFS over the DAG that the same test prunes.  That is why each must keep
the graph in memory at query time (the disadvantage the paper exploits
on distributed graphs), and why the query exists once, here: a scheme
supplies its labels through :meth:`~FilterSearchIndex.refutes` and
:meth:`~FilterSearchIndex.confirms` and inherits the rest.
"""

from __future__ import annotations

from repro.graph.digraph import DiGraph
from repro.graph.scc import Condensation
from repro.pregel.serial import SerialMeter


class FilterSearchIndex:
    """Labels over a condensation plus the label-pruned search.

    Both hooks take *component* ids and must be sound — ``confirms``
    only when ``cs`` reaches ``ct``, ``refutes`` only when it does not —
    so the order they are asked in never changes an answer.
    """

    def __init__(self, graph: DiGraph, cond: Condensation, filter_units: int):
        self._graph = graph
        self._cond = cond
        # Work units one label test costs a metered query.
        self._filter_units = filter_units

    @property
    def num_vertices(self) -> int:
        """Number of indexed vertices."""
        return self._graph.num_vertices

    def refutes(self, cs: int, ct: int) -> bool:
        """True when the labels prove ``cs`` does not reach ``ct``."""
        raise NotImplementedError

    def confirms(self, cs: int, ct: int) -> bool:
        """True when the labels prove ``cs`` reaches ``ct``."""
        return False

    def query(self, s: int, t: int, meter: SerialMeter | None = None) -> bool:
        """Answer ``s → t``; optionally charge work to ``meter``."""
        answer, _searched = self.query_verbose(s, t, meter)
        return answer

    def query_verbose(
        self, s: int, t: int, meter: SerialMeter | None = None
    ) -> tuple[bool, bool]:
        """Returns ``(answer, used_graph_fallback)``."""
        cs = self._cond.component_of[s]
        ct = self._cond.component_of[t]
        if meter is not None:
            meter.charge(self._filter_units)
        if cs == ct or self.confirms(cs, ct):
            return True, False
        if self.refutes(cs, ct):
            return False, False
        return self._search(cs, ct, meter), True

    def _search(self, cs: int, ct: int, meter: SerialMeter | None) -> bool:
        """DFS from ``cs`` over the DAG, one unit per edge looked at.
        A component on the stack was not confirmed when it was pushed,
        so ``seen`` never hides a positive answer."""
        dag = self._cond.dag
        seen = {cs}
        stack = [cs]
        units = 0
        while stack:
            c = stack.pop()
            for d in dag.out_neighbors(c):
                units += 1
                if d == ct or self.confirms(d, ct):
                    if meter is not None:
                        meter.charge(units)
                    return True
                if d in seen or self.refutes(d, ct):
                    continue
                seen.add(d)
                stack.append(d)
        if meter is not None:
            meter.charge(units + 1)
        return False
