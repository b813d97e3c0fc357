"""Dimension bounds and certificates for linear systems of plane curves
with multiple base points.

The library is its submodules (see the README's "Library layout"); this
package imports none of them, so that importing one loads only what it
needs.  Only gfmat, and interp's matrix functions, import numpy.
"""

__version__ = "0.1.0"
