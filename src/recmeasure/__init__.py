"""Exact-arithmetic martingales, codecs and effective null tests on Cantor space."""

from .codec import (
    BudgetSequence,
    Family,
    IndexInterval,
    budget_sequence,
    interval,
    num_of,
    pair,
    parity,
    s_index,
    str_of,
)
from .martingale import (
    SAVINGS_DROP_BOUND,
    BoundFunction,
    Martingale,
    SavingsMartingale,
    StrategyMartingale,
    SumMartingale,
    TableMartingale,
    capital_trace,
    schnorr_hits,
    success_at,
    validate,
)
from .nulltests import (
    AvoidanceAssignment,
    ClopenSet,
    KurtzTest,
    avoidance_measure,
    divergence_partial,
    dnr_cover_product,
    engulf_transform,
    kurtz_validate,
    normalize,
)
from .oracle import (
    ExceedSet,
    TTFunctional,
    averaged_martingale,
    exceed_set,
    functional_validate,
)
from .param import (
    Parametrization,
    consistent,
    halve_transform,
    hits,
    io_match_report,
    make_parametrization,
)
from .strategies import (
    KillingBudget,
    adversary_sequence,
    capital_lower_bound,
    coincidence_martingale,
    killing_budget,
    pair_doubling_martingale,
    prune_largest,
)

__version__ = "0.1.0"
