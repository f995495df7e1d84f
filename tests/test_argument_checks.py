"""One set of argument checks: every public entry point rejects a bad
argument with a DomainError that names it, and the oracle, which takes the
same checks, says what the fast path says."""

import math

import pytest

from gammagen import oracle
from gammagen.core_special import DomainError, log_gamma, psi_series
from gammagen.gen_gamma import (
    log_gamma_k,
    log_gamma_p,
    log_gamma_q,
    psi_k,
    psi_p,
    psi_q,
)

# (entry point, valid keyword arguments, the arguments it checks)
ENTRY_POINTS = [
    (log_gamma, dict(t=2.5), ("t",)),
    (psi_series, dict(t=2.5, tol=1e-12), ("t", "tol")),
    (log_gamma_p, dict(t=2.5, p=5), ("t", "p")),
    (psi_p, dict(t=2.5, p=5), ("t", "p")),
    (log_gamma_k, dict(t=2.5, k=2.0), ("t", "k")),
    (psi_k, dict(t=2.5, k=2.0, tol=1e-12), ("t", "k", "tol")),
    (log_gamma_q, dict(t=2.5, q=0.5, tol=1e-12), ("t", "q", "tol")),
    (psi_q, dict(t=2.5, q=0.5, tol=1e-12), ("t", "q", "tol")),
    (oracle.psi_hp, dict(t=2.5), ("t",)),
    (oracle.gamma_hp, dict(t=2.5), ("t",)),
    (oracle.psi_p_hp, dict(t=2.5, p=5), ("t", "p")),
    (oracle.gamma_p_hp, dict(t=2.5, p=5), ("t", "p")),
    (oracle.psi_q_hp, dict(t=2.5, q=0.5), ("t", "q")),
    (oracle.gamma_q_hp, dict(t=2.5, q=0.5), ("t", "q")),
    (oracle.psi_k_hp, dict(t=2.5, k=2.0), ("t", "k")),
    (oracle.gamma_k_quad, dict(t=2.5, k=2.0), ("t", "k")),
    (oracle.cross_validate, dict(fast_value=1.0, hp=oracle.psi_hp(2.5)), ("rel_tol",)),
]

BAD = [0.0, -1.0, math.nan, math.inf]
# besides BAD: p must be an integer, however integral its float; q < 1
MORE_BAD = {"p": [0, -1, 2.5, 5.0], "q": [1.0, 1.5]}


def _cases():
    for fn, good, checked in ENTRY_POINTS:
        for name in checked:
            for bad in BAD + MORE_BAD.get(name, []):
                yield pytest.param(fn, good, name, bad,
                                   id=f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                                      f"-{good.get('family', '')}{name}={bad!r}")


@pytest.mark.parametrize("fn, good, name, bad", _cases())
def test_bad_argument_raises_a_domain_error_that_names_it(fn, good, name, bad):
    with pytest.raises(DomainError, match=rf"^{name} must "):
        fn(**{**good, name: bad})


# each fast path and the oracle routine that checks it
PAIRS = [
    (log_gamma, oracle.gamma_hp, dict(t=2.5)),
    (psi_series, oracle.psi_hp, dict(t=2.5)),
    (log_gamma_p, oracle.gamma_p_hp, dict(t=2.5, p=5)),
    (psi_p, oracle.psi_p_hp, dict(t=2.5, p=5)),
    (log_gamma_q, oracle.gamma_q_hp, dict(t=2.5, q=0.5)),
    (psi_q, oracle.psi_q_hp, dict(t=2.5, q=0.5)),
    (log_gamma_k, oracle.gamma_k_quad, dict(t=2.5, k=2.0)),
    (psi_k, oracle.psi_k_hp, dict(t=2.5, k=2.0)),
]


@pytest.mark.parametrize("fast, hp, good", PAIRS, ids=[f.__name__ for f, _, _ in PAIRS])
def test_fast_path_and_oracle_give_the_same_message(fast, hp, good):
    for name in good:
        for bad in BAD + MORE_BAD.get(name, []):
            with pytest.raises(DomainError) as fast_exc:
                fast(**{**good, name: bad})
            with pytest.raises(DomainError) as hp_exc:
                hp(**{**good, name: bad})
            assert str(hp_exc.value) == str(fast_exc.value)
