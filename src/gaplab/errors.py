"""Exception types shared across the package.

The error taxonomy is deliberately small:

* ``ContractError`` -- a documented pre- or postcondition of an operation
  was violated by the caller or by constructed data; ``PromiseViolation``
  when that is an instance outside the promise the operation decides.
* ``ResourceLimitError`` -- an operation would exceed a desk-scale cap
  (dense materialization size, permutation-expansion dimension, ...).
* ``ConfigurationError`` -- requested experiment parameters are outside
  the range where double precision can represent the quantities involved.

Range errors on indices raise the builtin ``IndexError`` and malformed
values raise ``ValueError`` directly.
"""

from __future__ import annotations


class ContractError(ValueError):
    """A documented operation contract was violated."""


class ResourceLimitError(RuntimeError):
    """The request exceeds a desk-scale resource cap."""


class ConfigurationError(ValueError):
    """Experiment parameters are outside the supported numeric range."""


class PromiseViolation(ContractError):
    """An instance outside the promise its decision presumes (the CLI exits 3)."""
