"""Multi-component cut-and-project sets and their invariant densities.

The library is imported module by module, e.g. `from modelsets import refine`.
"""

__version__ = "0.1.0"
