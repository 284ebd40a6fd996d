"""The kernel configuration a report names: there is one, ``fused``.

Convolution and the kernels of :mod:`repro.framework.fused` each run their
fused path when their operands allow it and their reference composition
otherwise; the two are bit-identical, so nothing chooses between them.
Reports (``provenance()``, the e2e ledger) still record the name.
"""

from __future__ import annotations

__all__ = ["kernel_mode"]


def kernel_mode() -> str:
    """The kernel configuration reports record: always ``"fused"``."""
    return "fused"
