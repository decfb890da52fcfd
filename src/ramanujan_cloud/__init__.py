"""Ramanujan sums, multiplicative arithmetic functions, and numerically
verified expansions of the zero function."""

from .config import EngineConfig
from .core import (
    Factorization,
    ResourceLimitError,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    mobius_table,
    radical,
    sieve_primes,
    squarefree_table,
    valuation,
)
from .expansion import (
    AbsoluteConvergenceReport,
    ConvergenceVerdict,
    PartialSumSeries,
    ZeroCloudVerdict,
    absolute_convergence_report,
    checkpoint_schedule,
    coprime_peel_identity,
    detect_convergence,
    expansion_partial_sums,
    factorized_expansion,
    finite_factor,
    finite_factor_forms_equal,
    finite_factor_star,
    restricted_mobius_partial_sums,
    zero_cloud_verdict,
)
from .multiplicative import (
    GeneralArithmeticFunction,
    MultiplicativeFunction,
    SpectrumReport,
    catalog,
    catalog_names,
    is_weakly_exotic,
    spectrum,
    transparency_valuation,
)
from .squarefree import (
    balanced_series_demo,
    count_squarefree_in_ap,
    hooley_constant,
    weighted_squarefree_sum,
)
from .sums import (
    FormulaInconsistencyError,
    c_direct,
    c_holder,
    c_kluyver,
    c_prime_power,
    c_table,
    prime_power_column_sum,
)

__version__ = "0.1.0"
