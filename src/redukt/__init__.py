"""Reduction-graph calculus for legal strings.

Build the reduction graph of a legal string, decide whether an arbitrary
graph is isomorphic to one, recover a string from such a graph, realize
a prescribed pointer-component graph, and decide or enumerate the fiber
of strings sharing a reduction graph.
"""

from .flips import *
from .pcgraph import *
from .redgraph import *
from .rules import *
from .strings import *

__version__ = "0.1.0"
