"""Bipartite quantum operations: causality tests, localizability obstructions,
and the protocols that realize them as Kraus channels, at desk scale (local
dimensions <= 8).

Names are imported from their modules, e.g. ``from qcausal.report import classify_basis``.
"""

__version__ = "0.1.0"
