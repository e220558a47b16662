"""Distributed proximal gradient methods on networks.

Node objectives split into a prox-friendly part and a smooth part; nodes
agree on a shared decision vector by exchanging messages with neighbors
only. The package provides the algorithms, a synchronous network
simulator with communication audits, certified central references, and a
benchmark/experiment driver with theoretical bound curves.
"""

__version__ = "0.1.0"
