"""Reference answers computed without the package under test.

Table, dephasing and path references come from ``tests/oracles.py``, which
builds every value from hard-coded 2x2 matrices and 4-vectors.  The rest is
computed here with plain numpy and the standard library:

* the CHSH maximum over coplanar settings, 2*sqrt(s1^2 + s2^2), where s1, s2
  are the singular values of the 2x2 block T_ij = tr(rho sigma_i x sigma_j),
  i, j in {z, x} (Horodecki criterion restricted to one plane);
* the agents' trace, from the story's ten statements transcribed as data
  (axioms used, counterfactual or not, derivation parents) and the rule that
  a contradiction exists iff an admitted, enabled statement is
  counterfactual.
"""

from __future__ import annotations

import importlib.util
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("wf_oracles", ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

TABLE_TOL = 1e-12
# chsh_scan refines with Nelder-Mead to xatol 1e-10 / fatol 1e-13; near a
# maximum S is quadratic in the angles, so 1e-9 leaves room and nothing more.
CHSH_TOL = 1e-9

CONTEXTS = tuple(oracles.CONTEXT_LABELS)
# Event orders of the two foliations: F fires the spin splitter first.
EVENT_ORDER = {"F": ("spin", "coin"), "Fprime": ("coin", "spin")}

# Pauli matrices in the pair's (up, down) frame: the +1 port of the setting at
# angle a is (cos a/2, sin a/2), so its +-1 observable is cos a Z + sin a X.
_PAULI_ZX = (
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)

# (id, axioms used, counterfactual, derived from), in the story's order.
STATEMENTS = (
    ("Fbar_n02", "Q", True, ()),
    ("F_n12", "QC", False, ()),
    ("F_n13", "QC", True, ("Fbar_n02", "F_n12")),
    ("F_n14", "QC", True, ("F_n13",)),
    ("Wbar_n22", "Q", True, ()),
    ("Wbar_n23", "QC", True, ("Wbar_n22", "F_n14")),
    ("Wbar_n24", "QC", True, ("Wbar_n23",)),
    ("W_n26", "C", False, ()),
    ("W_n27", "QC", True, ("W_n26", "Wbar_n24")),
    ("W_n28", "QCS", True, ("W_n27",)),
)
STATEMENT_IDS = tuple(s[0] for s in STATEMENTS)
HARDY = tuple(complex(a) for a in oracles.HARDY)


def close(a: float, b: float, tol: float = TABLE_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def tables_close(got: dict, want: dict, tol: float = TABLE_TOL) -> bool:
    """Same keys, every value within ``tol``."""
    return set(got) == set(want) and all(close(got[k], want[k], tol) for k in want)


def born(context: str, amps) -> dict:
    return oracles.born_table(context, np.asarray(amps, dtype=complex))


def kept_density(amps, sites) -> np.ndarray:
    """|psi><psi| dephased in the current basis of every recording site."""
    v = np.asarray(amps, dtype=complex)
    rho = np.outer(v, v.conj())
    for site in sites:
        rho = oracles.dephase_matrix(rho, site)
    return rho


def kept_tables(amps, sites) -> dict:
    rho = kept_density(amps, sites)
    return {ctx: oracles.born_from_density(ctx, rho) for ctx in CONTEXTS}


@lru_cache(maxsize=None)
def paths(foliation: str, coupling: str) -> dict:
    """(initial, transitions, final) -> weight for one foliation and coupling."""
    return {
        (p["initial"], p["transitions"], p["final"]): p["weight"]
        for p in oracles.enumerate_paths(EVENT_ORDER[foliation], coupling)
    }


def marginal(path_weights: dict) -> dict:
    out: dict = {}
    for (_, _, final), w in path_weights.items():
        out[final] = out.get(final, 0.0) + w
    return out


@lru_cache(maxsize=None)
def origins(foliation: str, coupling: str) -> dict:
    """final -> {initial: conditional weight}."""
    out: dict = {}
    for (initial, _, final), w in paths(foliation, coupling).items():
        out.setdefault(final, {})
        out[final][initial] = out[final].get(initial, 0.0) + w
    return {
        final: {i: w / sum(by_initial.values()) for i, w in by_initial.items()}
        for final, by_initial in out.items()
    }


def _differ(a: dict, b: dict) -> bool:
    return any(abs(a.get(k, 0.0) - b.get(k, 0.0)) > TABLE_TOL for k in set(a) | set(b))


@lru_cache(maxsize=None)
def comparison(coupling: str) -> dict:
    """The two-foliation comparison: origins differ per outcome, marginals
    agree with each other and with the Born table."""
    of, ofp = origins("F", coupling), origins("Fprime", coupling)
    mf, mfp = marginal(paths("F", coupling)), marginal(paths("Fprime", coupling))
    table = born("Wbar,W", HARDY)
    return {
        "origin_differs": {o: _differ(of[o], ofp[o]) for o in sorted(set(of) | set(ofp))},
        "marginals_identical": not _differ(mf, mfp),
        "born_identical": not _differ(mf, table) and not _differ(mfp, table),
    }


def binomial_ok(count: int, n: int, weight: float) -> bool:
    """A path's sample count is Binomial(n, weight); allow six sigma plus one."""
    sigma = math.sqrt(n * weight * (1.0 - weight))
    return abs(count - n * weight) <= 6.0 * sigma + 1.0


def _ancestors(parents: dict, sid: str) -> set:
    seen: set = set()
    stack = list(parents[sid])
    while stack:
        p = stack.pop()
        if p not in seen:
            seen.add(p)
            stack.extend(parents[p])
    return seen


def trace(axioms: str, allow_counterfactual: bool, admitted) -> dict:
    """Expected trace under the enabled axioms (a string of Q, C, S)."""
    admitted = STATEMENT_IDS if admitted is None else tuple(admitted)
    if "Q" not in axioms:
        active: tuple = ()
    else:
        active = tuple(
            sid
            for sid, used, cf, _ in STATEMENTS
            if sid in admitted and set(used) <= set(axioms) and (allow_counterfactual or not cf)
        )
    counterfactual = {sid for sid, _, cf, _ in STATEMENTS if cf}
    parents = {sid: derived for sid, _, _, derived in STATEMENTS}
    active_cf = [sid for sid in active if sid in counterfactual]
    minimal = tuple(sid for sid in active_cf if not (_ancestors(parents, sid) & set(active_cf)))
    return {
        "active": active,
        "contradiction": bool(active_cf),
        "minimal": minimal,
        "witness_actual": born("Wbar,W", HARDY)[("okbar", "ok")] if active_cf else None,
    }


def correlation_block(rho: np.ndarray) -> np.ndarray:
    """T_ij = tr(rho sigma_i x sigma_j) for i, j in (z, x)."""
    return np.array(
        [[float(np.real(np.trace(rho @ np.kron(a, b)))) for b in _PAULI_ZX] for a in _PAULI_ZX]
    )


def chsh_max(rho: np.ndarray) -> float:
    s = np.linalg.svd(correlation_block(rho), compute_uv=False)
    return float(2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2))


def chsh_at(block: np.ndarray, quad) -> float:
    """|E(a,b) + E(a',b) + E(a,b') - E(a',b')| with E = n(a)^T T n(b)."""
    a, ap, b, bp = quad

    def e(x: float, y: float) -> float:
        return float(np.array([math.cos(x), math.sin(x)]) @ block @ np.array([math.cos(y), math.sin(y)]))

    return abs(e(a, b) + e(ap, b) + e(a, bp) - e(ap, bp))


_INV = 2.0 ** -0.5
SINGLET = np.array([0.0, _INV, -_INV, 0.0])
SINGLET_RHO = np.outer(SINGLET, SINGLET)
# The observer-independent-facts model: anticorrelated z facts with
# cos^2(angle/2) readout gives E = -cos(alpha) cos(beta), i.e. T = diag(-1, 0).
LHV_BLOCK = np.array([[-1.0, 0.0], [0.0, 0.0]])
LHV_MAX = 2.0
TSIRELSON = 2.0 * math.sqrt(2.0)
OPTIMAL_QUAD = (0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0)


def erased_vs_kept() -> dict:
    """Erasing returns the singlet; keeping both z records dephases it."""
    kept = correlation_block(kept_density(SINGLET, (0, 1)))
    return {
        "s_erased": chsh_at(correlation_block(SINGLET_RHO), OPTIMAL_QUAD),
        "s_kept_at_quad": chsh_at(kept, OPTIMAL_QUAD),
        "s_kept_max": chsh_max(kept_density(SINGLET, (0, 1))),
        "aligned_correlation": float(kept[0, 0]),
        "kept_vs_lhv_max_gap": float(np.max(np.abs(kept - LHV_BLOCK))),
    }
