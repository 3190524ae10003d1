"""Randomness-metered differentially private release of counting queries.

Two release mechanisms over d binary predicates, both exact (no floating
point in any sampling path) and both metered down to the individual random
bit: an approximate-DP release built on truncated integer Gaussian noise
with a shared random shift and coarse rounding, and a pure-DP release built
on integer Laplace noise with the same shift and rounding. The shift lets
most coordinates be released with no noise bits of their own, which is
where the randomness savings come from.

The audit harness provides brute-force oracle distributions, goodness-of-fit
statistics, and certified privacy-ratio checks for everything above. It is
loaded on first use. The package, audits included, needs nothing beyond the
standard library.
"""

from importlib import import_module

from .approx_mech import derive_approx_params, mech_approx_efficient
from .bit_tape import BitTape
from .errors import FrugalDPError, InternalError
from .pure_mech import derive_pure_params, mech_pure_efficient
from .release import CountVector, MechanismResult, RandomnessReport

__version__ = "0.1.0"

# Names resolved on first access instead of at import, by the module that
# defines them. A release has no use for the audit harness's oracles. The CLI
# module must not be imported here: ``python -m frugaldp.cli`` imports the
# package first and would then run the module a second time.
_LAZY_NAMES = {
    "RunConfig": "cli",
    "load_dataset": "cli",
    "run": "cli",
    "privacy_audit": "audit_harness",
    "randomness_audit": "audit_harness",
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BitTape",
    "CountVector",
    "FrugalDPError",
    "InternalError",
    "MechanismResult",
    "RandomnessReport",
    "RunConfig",
    "derive_approx_params",
    "derive_pure_params",
    "load_dataset",
    "mech_approx_efficient",
    "mech_pure_efficient",
    "privacy_audit",
    "randomness_audit",
    "run",
]
