"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the deliberate fault-injection harness
the serving and runtime layers expose hook points for; see that module
for the catalogue of injectable faults and the arming API.  Nothing in
here runs unless a test (or an operator via ``REPRO_FAULTS``) arms it.
:func:`~repro.testing.reference.reference_forward` is the plain float64
record interpreter the tests check frozen plans against.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".faults": ["faults"],
        ".reference": ["reference_forward", "reference_proba"],
    },
)
