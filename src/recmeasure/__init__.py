"""Exact-arithmetic martingales, codecs and effective null tests on Cantor space.

Each public name is imported from its home module on first access (PEP 562),
so ``import recmeasure`` loads no submodule.
"""

import importlib

_HOMES = {
    "codec": ("BudgetSequence", "Family", "IndexInterval", "budget_sequence", "interval",
              "num_of", "pair", "parity", "s_index", "str_of"),
    "martingale": ("SAVINGS_DROP_BOUND", "Martingale", "SavingsMartingale", "StrategyMartingale",
                   "TableMartingale", "capital_trace", "validate"),
    "nulltests": ("ClopenSet", "KurtzTest", "divergence_partial", "dnr_cover_product",
                  "engulf_transform", "kurtz_validate", "normalize"),
    "oracle": ("ExceedSet", "TTFunctional", "averaged_martingale", "exceed_set",
               "functional_validate"),
    "param": ("Parametrization", "consistent", "halve_transform", "hits", "io_match_report",
              "make_parametrization"),
    "strategies": ("adversary_sequence", "coincidence_martingale", "pair_doubling_martingale"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
