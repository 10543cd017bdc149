"""Exception types shared across the package, and its one integer rule.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
OSError -> 3, BalancedPriorError -> 4, NonFiniteRiskError -> 5.

check_int(value, name, minimum) is the one rule for every size, count and
seed: value must be an int or a numpy integer of at least minimum, or it is a
ConfigError that names it ("{name} must be an integer, got ..." or "{name}
must be at least {minimum}, got ..."). A float is refused even when whole.
"""

import numpy as np


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
    """Training diverged: the train or validation risk of an epoch, a
    parameter of one trial of a weighted-point fit, or the score a fitted
    model gives one row, is NaN or infinite (too large a learning rate, for
    instance); or a confidence model saturates every posterior to 0 or 1 and
    gets a training label wrong."""

    def __init__(self, epoch, role, value, trial=None, row=None):
        if row is not None:
            what = f"{role} score of row {row}"
        elif trial is not None:
            what = f"trial {trial} {role} parameter"
        else:
            what = f"{role} risk"
        super().__init__(f"epoch {epoch}: {what} is {value!r}; training diverged")
        self.epoch, self.role, self.value, self.trial, self.row = epoch, role, value, trial, row


def check_int(value, name, minimum):
    """value, if it is an int or numpy integer >= minimum; else a ConfigError."""
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value
