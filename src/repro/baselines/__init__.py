"""Competitor methods evaluated against the DRL family.

- :mod:`~repro.baselines.bfl` — BFL (Su et al., TKDE'16), the
  index-assisted competitor of Exp 2 (centralized, ``BFL^C``).
- :mod:`~repro.baselines.bfl_distributed` — ``BFL^D``: the same index
  built and queried with distributed DFS.
- :mod:`~repro.baselines.online` — index-free online search, the
  motivation strawman of Section I.
- :mod:`~repro.baselines.transitive_closure` — exact reachability
  oracle (ground truth for tests, index-only strawman).
"""

from repro.baselines.bfl import BflIndex, build_bfl
from repro.baselines.bfl_distributed import (
    DistributedBflIndex,
    build_bfl_distributed,
)
from repro.baselines.online import (
    DistributedOnlineSearcher,
    OnlineSearcher,
)
from repro.baselines.transitive_closure import TransitiveClosure

__all__ = [
    "BflIndex",
    "DistributedBflIndex",
    "DistributedOnlineSearcher",
    "OnlineSearcher",
    "TransitiveClosure",
    "build_bfl",
    "build_bfl_distributed",
]
