"""Number-theoretic and trigonometric helpers.

Everything procedure A2 (polynomial fingerprints over F_p) and the
Boyer-Brassard-Hoyer-Tapp analysis (Grover angles) need, implemented
from scratch:

* :mod:`repro.mathx.primes` — deterministic Miller-Rabin, prime search
  in the paper's window ``(2^{4k}, 2^{4k+1})``.
* :mod:`repro.mathx.modular` — streaming evaluation of the fingerprint
  polynomial over F_p, with its non-streaming reference.
* :mod:`repro.mathx.angles` — the Grover angle ``theta`` with
  ``sin^2(theta) = t/N`` and related exact trigonometric identities.
"""

from .primes import (
    is_prime,
    next_prime,
    prime_in_window,
    fingerprint_prime,
)
from .modular import (
    StreamingPolynomialEvaluator,
    evaluate_polynomial,
    polynomial_from_bits,
)
from .angles import (
    grover_angle,
    grover_success_probability,
    average_success_probability,
    sin_squared_sum,
)

__all__ = [
    "is_prime",
    "next_prime",
    "prime_in_window",
    "fingerprint_prime",
    "StreamingPolynomialEvaluator",
    "evaluate_polynomial",
    "polynomial_from_bits",
    "grover_angle",
    "grover_success_probability",
    "average_success_probability",
    "sin_squared_sum",
]
