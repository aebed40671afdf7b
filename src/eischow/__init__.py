"""eischow: exact and numeric invariants of the Eisenstein part of the
arithmetic Chow group of the modular curves X_0(N), N squarefree.

Subpackages by capability:

* ``gamma0``     invariants of Gamma_0(N) (index, elliptic points, cusps, genus),
                 the package's one primality test and factorization, and the
                 characters chi_-3 and chi_-4
* ``symbolic``   exact arithmetic over the basis ONE, KAPPA, LOG(p)
* ``eis``        the Eisenstein basis, its Gram matrix, W-hat and omega_Eis^2
* ``hecke``      T-hat_l and w-hat_d with self-adjointness and commutation tests
* ``qexp``       eta quotients, Hecke action on q-expansions, Heegner divisors
* ``lseries``    L(f,1), L'(f,1), quadratic twists, Petersson norm, omega_f^2
* ``disc``       the unit-disc Dirichlet-form verification kernel
* ``cli``        the command-line front end

The exact layers (``gamma0`` to ``qexp``) use only the standard library and
load with the package.  ``lseries`` and ``disc`` need numpy; they load on
first use of one of their names here (``eischow.omega_f_sq``,
``from eischow import *``) or on an explicit ``import eischow.lseries``.
"""

import importlib

from .gamma0 import Gamma0Data, chi, genus_quotient, invariants
from .symbolic import KAPPA, LOG, ONE, SymbolicReal
from .eis import (
    EisBasis,
    EisVector,
    GramMatrix,
    gram,
    omega_eis_sq,
    omega_eis_vector,
    pair,
    w_square,
    w_vector,
)
from .hecke import EisOperator, commutator_is_zero, is_self_adjoint, t_hat, w_hat
from .qexp import (
    EtaQuotient,
    HeegnerDivisor,
    QExpansion,
    canonical_decomposition,
    eta_expand,
    hecke_q,
    heegner_points,
)

__version__ = "0.1.0"

__all__ = [
    "Gamma0Data", "invariants", "genus_quotient", "chi",
    "SymbolicReal", "ONE", "KAPPA", "LOG",
    "EisBasis", "EisVector", "GramMatrix", "gram", "pair",
    "w_vector", "w_square", "omega_eis_vector", "omega_eis_sq",
    "EisOperator", "t_hat", "w_hat", "is_self_adjoint", "commutator_is_zero",
    "QExpansion", "EtaQuotient", "eta_expand", "hecke_q",
    "HeegnerDivisor", "heegner_points", "canonical_decomposition",
    "EigenformData", "ingest", "l_value", "l_derivative",
    "petersson", "omega_f_sq",
    "DiscGrid", "seminorm1", "verification_report",
    "__version__",
]

# names served from the numpy layers, which load on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(
        ("EigenformData", "ingest", "l_derivative", "l_value", "omega_f_sq", "petersson"),
        "lseries",
    ),
    **dict.fromkeys(("DiscGrid", "seminorm1", "verification_report"), "disc"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
