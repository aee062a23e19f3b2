"""The sweep engine shared by every grid-shaped experiment.

The paper's method is a configuration grid — one measured row per
point of batch size × sequence length × precision × power mode — and
the fleet sweeps (``repro kvtier``, ``fairness``, ``sustain``,
``plan`` and ``plan --validate``) keep the same discipline.  Each one
is a frozen spec plus a *point function* ``point(spec, **coords) ->
row``; this module owns everything else:

- :func:`run_grid` walks the cartesian product of the declared axes,
  outermost axis first, so row order is exactly that of the nested
  loops the axes list;
- :class:`GridReport` renders the rows as the aligned text table and
  the canonical CSV the CI determinism gates byte-diff;
- :func:`versioned_key` is the content address every spec's
  ``cache_key()`` returns: the spec's fields plus a semantics version.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

from repro.core.cache import payload_fingerprint


@dataclass
class GridReport:
    """All rows of one grid, in the engine's deterministic order."""

    spec: object
    rows: List[Dict] = dataclasses.field(default_factory=list)

    def table(self) -> str:
        """Aligned text table of the rows (stable formatting)."""
        if not self.rows:
            return ""
        cols = list(self.rows[0])
        widths = {c: max(len(c), *(len(str(r[c])) for r in self.rows))
                  for c in cols}
        lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
        for r in self.rows:
            lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
        return "\n".join(lines)

    def csv(self) -> str:
        """The rows as canonical CSV text (the determinism-gate artifact)."""
        if not self.rows:
            return ""
        cols = list(self.rows[0])
        lines = [",".join(cols)]
        for r in self.rows:
            lines.append(",".join(str(r[c]) for c in cols))
        return "\n".join(lines) + "\n"


def run_grid(spec: object, axes: Mapping[str, Sequence],
             point: Callable[..., Dict]) -> List[Dict]:
    """One row per point of ``axes``, outermost axis first.

    ``axes`` maps each coordinate name to its values in declaration
    order; ``point(spec, **coords)`` builds the row for one point.
    """
    names = list(axes)
    return [point(spec, **dict(zip(names, values)))
            for values in itertools.product(*axes.values())]


def versioned_key(spec: object, version_field: str, version: object) -> str:
    """Content address of ``spec`` with a semantics version folded in.

    Callers pass the version read at call time, so bumping a module's
    version constant invalidates every key that folds it.
    """
    payload = dataclasses.asdict(spec)
    payload[version_field] = version
    return payload_fingerprint(payload)
