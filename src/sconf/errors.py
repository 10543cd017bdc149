"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
BalancedPriorError -> 4, NonFiniteRiskError -> 5.
"""


class SconfError(Exception):
    pass


class ConfigError(SconfError, ValueError):
    """Bad configuration: invalid setup parameters, malformed config files,
    contract violations on operation inputs."""


class DataError(SconfError, ValueError):
    """Bad data: unreadable dataset files, corrupt IDX payloads,
    inconsistent record counts."""


class BalancedPriorError(SconfError, ValueError):
    """Class prior too close to 1/2 for the pair risk estimators, whose
    coefficients carry a 1/(pi+ - pi-) factor."""


class NonFiniteRiskError(SconfError, ArithmeticError):
    """Training diverged: the train or validation risk of an epoch is NaN or
    infinite (too large a learning rate, for instance)."""

    def __init__(self, epoch, role, value):
        super().__init__(f"epoch {epoch}: {role} risk is {value!r}; training diverged")
        self.epoch, self.role, self.value = epoch, role, value
