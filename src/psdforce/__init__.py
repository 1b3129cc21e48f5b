"""Exact tools for positive semidefinite zero forcing on small graphs.

The library simulates the PSD color change rule, computes the PSD zero
forcing number Z+ and propagation times pt+(G;B), pt+(G,k), pt+(G), and
transforms forcing sets by migration: moving blue vertices between
components while provably preserving the forcing property.  On top of the
engine sit throttling numbers, complement (Nordhaus-Gaddum) sums, and
exhaustive catalogs of the graphs whose propagation time comes within a
fixed distance of their order.

Everything is exact and deterministic: graphs are bitmask adjacency rows,
searches are complete subset scans under an explicit budget, and all
catalog output is keyed by canonical labels.
"""

from . import canon, engine, extremal, families, graph, migration
from .canon import *
from .engine import *
from .extremal import *
from .families import *
from .graph import *
from .migration import *

__version__ = "0.1.0"

__all__ = []
__all__ += canon.__all__
__all__ += engine.__all__
__all__ += extremal.__all__
__all__ += families.__all__
__all__ += graph.__all__
__all__ += migration.__all__
