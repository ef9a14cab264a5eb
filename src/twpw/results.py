"""The one result type of every graph operation, and what its bounds share.

An operation builds its result graph once.  Given valid decompositions of
its inputs, it also rewrites them into a valid decomposition of the result
and claims a bound on that decomposition's width.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Decomposition
from .errors import ParameterError
from .graphs import Graph


@dataclass(frozen=True)
class Result:
    graph: Graph
    decomposition: Decomposition | None = None  # None: nothing was carried
    claimed_bound: int | None = None


def check_host(g: Graph, d: Decomposition | None) -> None:
    if d is not None and d.host != g:
        raise ParameterError("decompositions must belong to the given graphs")
