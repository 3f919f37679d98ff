"""Quick-charge station load forecasting and storage scheduling toolkit.

Import names from the submodules (``chargecast.survey``, ``.forecast``,
``.scheduler``). This file imports nothing, so ``chargecast.__main__``, the
command's entry, runs before numpy loads and can set numpy's BLAS default.
"""

__version__ = "0.1.0"
