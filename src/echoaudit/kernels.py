"""Name of the residual-operator implementation, for benchmark records.

``ideology.NormalizedMatrix`` computes both operator products in NumPy; there
is no other implementation.  This module stays because the pipeline benchmark
(``perfbench/``) imports it at cold start, counts a failed import as a failed
operation, stores ``active_backend()`` in every record and refuses to compare
records whose values differ.
"""

from __future__ import annotations


def active_backend() -> str:
    return "fallback"
