"""A stub left where the workspace arena was (DESIGN.md, *Measured and removed*).

Kernels take their scratch from ``np.empty``.  This module exists only for
the end-to-end benchmark's traced pass, which still reads
``arena().stats()``: it reports an arena that pools nothing.
"""


class _NoArena:
    def stats(self) -> dict[str, float]:
        return {"hit_rate": 0.0, "peak_live_bytes": 0}


def arena() -> _NoArena:
    return _NoArena()
