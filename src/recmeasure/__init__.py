"""Exact-arithmetic martingales, codecs and effective null tests on Cantor space.

``import recmeasure`` loads no submodule; import each name from its module.
"""

__version__ = "0.1.0"
