"""Exception hierarchy shared by all modules.

Exit codes follow the CLI contract: 2 config, 3 budget, 4 numeric.
"""


class HeightZetaError(Exception):
    exit_code = 1


class ConfigError(HeightZetaError):
    exit_code = 2


class BudgetExceededError(HeightZetaError):
    exit_code = 3


class DepthOverflowError(BudgetExceededError):
    """A p-adic computation would need residue refinement past the ceiling."""


class NumericError(HeightZetaError):
    exit_code = 4


class NonconvergentError(NumericError):
    """The requested parameters lie outside the region of absolute convergence."""


class PoleError(NumericError):
    """Evaluation was requested at a pole."""
