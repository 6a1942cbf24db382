"""Independent brute-force reference computations for the test suite.

Everything here is built directly from hardcoded 2x2 matrices and 4-vectors
and imports nothing from the package under test, so the values it produces
stand on their own as oracles.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

INV = 2.0 ** -0.5

# Label vectors in (h, t) coordinates for the coin and (down, up) for the spin.
COIN_VECS = {
    "h": np.array([1.0, 0.0], dtype=complex),
    "t": np.array([0.0, 1.0], dtype=complex),
    "okbar": np.array([INV, -INV], dtype=complex),
    "failbar": np.array([INV, INV], dtype=complex),
}
SPIN_VECS = {
    "down": np.array([1.0, 0.0], dtype=complex),
    "up": np.array([0.0, 1.0], dtype=complex),
    "ok": np.array([-INV, INV], dtype=complex),
    "fail": np.array([INV, INV], dtype=complex),
}

LABEL_VECS = {**COIN_VECS, **SPIN_VECS}

# Hardy amplitudes, index order (h,down), (h,up), (t,down), (t,up).
HARDY = np.array([1.0, 0.0, 1.0, 1.0], dtype=complex) / np.sqrt(3.0)

CONTEXT_LABELS = {
    "Zbar,Z": (("h", "t"), ("down", "up")),
    "Zbar,W": (("h", "t"), ("ok", "fail")),
    "Wbar,Z": (("okbar", "failbar"), ("down", "up")),
    "Wbar,W": (("okbar", "failbar"), ("ok", "fail")),
}

# Beam splitters as amplitude maps: row r of BS_SPIN is <port_r| on (down, up),
# ports ordered (ok, fail); BS_COIN likewise on (h, t) with ports (okbar, failbar).
BS_SPIN = np.array([[-INV, INV], [INV, INV]], dtype=complex)
BS_COIN = np.array([[INV, -INV], [INV, INV]], dtype=complex)

BRANCH_RANK = {
    "h": 0,
    "t": 1,
    "up": 0,
    "down": 1,
    "okbar": 0,
    "failbar": 1,
    "ok": 0,
    "fail": 1,
}


def outcome_vector(coin_label: str, spin_label: str) -> np.ndarray:
    return np.kron(COIN_VECS[coin_label], SPIN_VECS[spin_label])


def born_table(context: str, state: np.ndarray = HARDY) -> dict[tuple[str, str], float]:
    """P(c, s) = |<c, s|state>|^2 by direct inner products."""
    coin_labels, spin_labels = CONTEXT_LABELS[context]
    return {
        (c, s): float(abs(np.vdot(outcome_vector(c, s), state)) ** 2)
        for c in coin_labels
        for s in spin_labels
    }


def quantile_joint(
    input_dist: dict[str, float], output_dist: dict[str, float]
) -> dict[tuple[str, str], float]:
    """No-crossing coupling by interval overlap on [0, 1] in rank order."""

    def intervals(dist: dict[str, float]) -> dict[str, tuple[float, float]]:
        out = {}
        lo = 0.0
        for label in sorted((l for l, p in dist.items() if p > 1e-15), key=BRANCH_RANK.get):
            out[label] = (lo, lo + dist[label])
            lo += dist[label]
        return out

    joint = {}
    for li, (a1, b1) in intervals(input_dist).items():
        for lo, (a2, b2) in intervals(output_dist).items():
            overlap = min(b1, b2) - max(a1, a2)
            if overlap > 1e-15:
                joint[(li, lo)] = overlap
    return joint


def product_joint(
    input_dist: dict[str, float], output_dist: dict[str, float]
) -> dict[tuple[str, str], float]:
    return {
        (i, o): pi * po
        for i, pi in input_dist.items()
        for o, po in output_dist.items()
        if pi * po > 1e-15
    }


def enumerate_paths(
    event_order: tuple[str, ...], coupling: str = "monotone"
) -> list[dict]:
    """Sequential-conditional-collapse enumeration over
    (initial hidden config) x (event outcome sequences).

    The shared amplitudes are tracked as a 2x2 matrix M[coin, spin]; at each
    event the active side's outcome law is its conditional amplitude row or
    column (given the partner's hidden branch) pushed through the beam
    splitter, and hidden branches transition through the chosen coupling.
    Returns dicts with keys initial, transitions, final, weight.
    """
    m0 = HARDY.reshape(2, 2)
    initial_labels = [("h", "down"), ("h", "up"), ("t", "down"), ("t", "up")]
    join = quantile_joint if coupling == "monotone" else product_joint
    results: list[dict] = []

    def step(m, coin_labels, spin_labels, coin_lab, spin_lab, weight, events, trans, initial):
        if not events:
            results.append(
                {
                    "initial": initial,
                    "transitions": tuple(trans),
                    "final": (coin_lab, spin_lab),
                    "weight": weight,
                }
            )
            return
        event, rest = events[0], events[1:]
        if event == "spin":
            cond = m[coin_labels.index(coin_lab), :]
            cond = cond / np.linalg.norm(cond)
            out_amp = BS_SPIN @ cond
            input_dist = dict(zip(spin_labels, np.abs(cond) ** 2))
            output_dist = dict(zip(("ok", "fail"), np.abs(out_amp) ** 2))
            joint = join(input_dist, output_dist)
            m_bs = m @ BS_SPIN.T
            for port_idx, port in enumerate(("ok", "fail")):
                p = joint.get((spin_lab, port), 0.0) / input_dist[spin_lab]
                if p <= 1e-12:
                    continue
                m_new = m_bs.copy()
                m_new[:, 1 - port_idx] = 0.0
                m_new /= np.linalg.norm(m_new)
                step(
                    m_new,
                    coin_labels,
                    ("ok", "fail"),
                    coin_lab,
                    port,
                    weight * p,
                    rest,
                    trans + [("spin", spin_lab, port)],
                    initial,
                )
        else:
            cond = m[:, spin_labels.index(spin_lab)]
            cond = cond / np.linalg.norm(cond)
            out_amp = BS_COIN @ cond
            input_dist = dict(zip(coin_labels, np.abs(cond) ** 2))
            output_dist = dict(zip(("okbar", "failbar"), np.abs(out_amp) ** 2))
            joint = join(input_dist, output_dist)
            m_bs = BS_COIN @ m
            for port_idx, port in enumerate(("okbar", "failbar")):
                p = joint.get((coin_lab, port), 0.0) / input_dist[coin_lab]
                if p <= 1e-12:
                    continue
                m_new = m_bs.copy()
                m_new[1 - port_idx, :] = 0.0
                m_new /= np.linalg.norm(m_new)
                step(
                    m_new,
                    ("okbar", "failbar"),
                    spin_labels,
                    port,
                    spin_lab,
                    weight * p,
                    rest,
                    trans + [("coin", coin_lab, port)],
                    initial,
                )

    for (coin_lab, spin_lab) in initial_labels:
        w0 = float(abs(m0[("h", "t").index(coin_lab), ("down", "up").index(spin_lab)]) ** 2)
        if w0 <= 1e-15:
            continue
        step(
            m0,
            ("h", "t"),
            ("down", "up"),
            coin_lab,
            spin_lab,
            w0,
            tuple(event_order),
            [],
            (coin_lab, spin_lab),
        )
    return results


def sample_paths_per_call(paths, samples: int, rng, binomial) -> dict[tuple, int]:
    """The sampler's split, regrouped on every call: the paths (objects with
    ``initial``, ``events``, ``weight`` and ``signature``) are bucketed by
    initial configuration, then by each transition in turn, and a count is
    split among a node's buckets by sequential conditional draws,
    ``binomial(rng, count left, mass_i / mass of buckets i and after)``, the
    last bucket taking the rest.  The draw function is passed in, so the
    counts can be compared bit for bit with the package's."""
    counts: dict[tuple, int] = {}

    def assign(count: int, group: list, depth: int) -> None:
        if count == 0:
            return
        if len(group) == 1:
            counts[group[0].signature] = count
            return
        buckets: dict[object, list] = {}
        for p in group:
            key = p.initial if depth == 0 else p.events[depth - 1]
            buckets.setdefault(key, []).append(p)
        masses = [sum(q.weight for q in bucket) for bucket in buckets.values()]
        last = len(masses) - 1
        for i, bucket in enumerate(buckets.values()):
            got = count if i == last else binomial(rng, count, masses[i] / sum(masses[i:]))
            assign(got, bucket, depth + 1)
            count -= got

    assign(samples, list(paths), 0)
    return counts


def dephase_matrix(rho: np.ndarray, site: int) -> np.ndarray:
    """Projector-sum dephasing of a 4x4 two-qubit density in the current basis."""
    out = np.zeros_like(rho)
    for k in range(2):
        p = np.zeros((2, 2))
        p[k, k] = 1.0
        full = np.kron(p, np.eye(2)) if site == 0 else np.kron(np.eye(2), p)
        out += full @ rho @ full
    return out


def born_from_density(context: str, rho: np.ndarray) -> dict[tuple[str, str], float]:
    coin_labels, spin_labels = CONTEXT_LABELS[context]
    table = {}
    for c in coin_labels:
        for s in spin_labels:
            v = outcome_vector(c, s)
            table[(c, s)] = float(np.real(np.vdot(v, rho @ v)))
    return table


def change_matrix(source_labels: tuple[str, str], target_labels: tuple[str, str]) -> np.ndarray:
    """<target_j|source_i>: re-expresses one system's amplitudes from the
    source labels into the target labels."""
    src = np.column_stack([LABEL_VECS[label] for label in source_labels])
    tgt = np.column_stack([LABEL_VECS[label] for label in target_labels])
    return tgt.conj().T @ src


def local_operator(u: np.ndarray, system: int, num_systems: int) -> np.ndarray:
    """kron(I, ..., u, ..., I) with ``u`` on ``system``, first system major."""
    out = np.eye(1)
    for k in range(num_systems):
        out = np.kron(out, u if k == system else np.eye(2))
    return out


def born_probs(
    state: np.ndarray, source_labels: list[tuple[str, str]], target_labels: list[tuple[str, str]]
) -> dict[tuple[str, ...], float]:
    """Outcome probabilities of an n-system state vector or density matrix,
    given in the source labels, measured in the target labels, from the full
    kron product of the per-system changes."""
    full = np.eye(1)
    for src, tgt in zip(source_labels, target_labels):
        full = np.kron(full, change_matrix(src, tgt))
    if state.ndim == 1:
        probs = np.abs(full @ state) ** 2
    else:
        probs = np.real(np.diag(full @ state @ full.conj().T))
    return dict(zip(itertools.product(*target_labels), (float(p) for p in probs)))


# Pauli Z and X in a pair qubit's (up, down) frame.  The +1 port of the
# setting at angle a is (cos a/2, sin a/2), so its +-1 observable is
# cos(a) Z + sin(a) X.
PAIR_PAULI_ZX = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def pair_correlation(rho: np.ndarray, a: float, b: float) -> float:
    """tr(rho A(a) x B(b)) for a 4x4 pair density in (up, down) coordinates."""
    z, x = PAIR_PAULI_ZX
    obs_a = np.cos(a) * z + np.sin(a) * x
    obs_b = np.cos(b) * z + np.sin(b) * x
    return float(np.real(np.trace(rho @ np.kron(obs_a, obs_b))))


def born_table_along(
    coin_labels: tuple[str, str], angle: float, state: np.ndarray = HARDY
) -> dict[tuple[str, str], float]:
    """P(c, plus_a) and P(c, minus_a) with the spin measured along the
    direction at ``angle``: the expectation of |c><c| (x) (I +- n.(Z, X))/2,
    n = (cos angle, sin angle), with Z and X in the spin's reference frame."""
    z, x = PAIR_PAULI_ZX
    obs = np.cos(angle) * z + np.sin(angle) * x
    ports = {"plus_a": (np.eye(2) + obs) / 2.0, "minus_a": (np.eye(2) - obs) / 2.0}
    coin = {c: np.outer(COIN_VECS[c], COIN_VECS[c].conj()) for c in coin_labels}
    return {
        (c, s): float(np.real(np.vdot(state, np.kron(coin[c], p) @ state)))
        for c in coin_labels
        for s, p in ports.items()
    }


def correlation_block(rho: np.ndarray) -> np.ndarray:
    """T_ij = tr(rho sigma_i x sigma_j) for i, j in (z, x)."""
    return np.array(
        [[np.real(np.trace(rho @ np.kron(p, q))) for q in PAIR_PAULI_ZX] for p in PAIR_PAULI_ZX]
    )


PAIR_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """The full T_ij = tr(rho sigma_i x sigma_j) for i, j in (z, x, y): the
    (z, x) block of :func:`correlation_block`, bordered by the y row and
    column."""
    paulis = (*PAIR_PAULI_ZX, PAIR_PAULI_Y)
    return np.array([[np.real(np.trace(rho @ np.kron(p, q))) for q in paulis] for p in paulis])


def chsh_grid_max(correlation, grid_n: int) -> float:
    """Brute-force max of |E(a,b) + E(a',b) + E(a,b') - E(a',b')| over all
    grid_n^4 quads of grid angles."""
    grid = np.linspace(0.0, 2.0 * np.pi, grid_n, endpoint=False)
    e = np.array([[correlation(a, b) for b in grid] for a in grid])
    # Axes (a, a', b, b').
    s = e[:, None, :, None] + e[None, :, :, None] + e[:, None, None, :] - e[None, :, None, :]
    return float(np.abs(s).max())


def smallest_eigenvalue(m: np.ndarray) -> float:
    """The smallest eigenvalue of the Hermitian part (M + M^H)/2, by LAPACK."""
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(K = k) for K ~ Binomial(n, p): exact binomial coefficients up to
    n = 1000, log-gamma above."""
    if not 0 <= k <= n:
        return 0.0
    if p in (0.0, 1.0):
        return float(k == (n if p == 1.0 else 0))
    if n <= 1000:
        return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    log_pmf = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    return math.exp(log_pmf)


def lhv_joint(model, a: float, b: float) -> dict[tuple[int, int], float]:
    """P(x, y | a, b) = sum_lambda p (1 + x r.n(a))/2 (1 + y s.n(b))/2, the
    definition of a local hidden-variable model with prior ``model.prior``
    over configurations whose (Alice's r, Bob's s) Bloch vectors are
    ``model.vectors``, with n(a) = (cos a, sin a) in the (z, x) plane."""
    joint = {(x, y): 0.0 for x in (1, -1) for y in (1, -1)}
    for ((rz, rx), (sz, sx)), weight in zip(model.vectors, model.prior):
        u = rz * math.cos(a) + rx * math.sin(a)
        v = sz * math.cos(b) + sx * math.sin(b)
        for x, y in joint:
            joint[(x, y)] += weight * (1.0 + x * u) / 2.0 * (1.0 + y * v) / 2.0
    return joint


def change_between(source_vectors, target_vectors) -> np.ndarray:
    """<target_j|source_i> for one system whose label vectors, complex ones
    included, are given in its reference frame, one vector per label."""
    src = np.array(source_vectors, dtype=complex).T
    tgt = np.array(target_vectors, dtype=complex).T
    return tgt.conj().T @ src


def re_expressed_density(rho: np.ndarray, source_vectors, target_vectors) -> np.ndarray:
    """U rho U^H, with U the kron product of each system's change_between,
    first system major."""
    u = np.eye(1)
    for src, tgt in zip(source_vectors, target_vectors):
        u = np.kron(u, change_between(src, tgt))
    return u @ rho @ u.conj().T


def conditional_slice(amps: np.ndarray, fixed_system: int, index: int) -> np.ndarray:
    """The other system's normalised amplitudes of a two-system state, given
    label ``index`` on ``fixed_system``."""
    m = np.asarray(amps, dtype=complex).reshape(2, 2)
    v = m[index, :] if fixed_system == 0 else m[:, index]
    return v / np.linalg.norm(v)


# Index of each amplitude of a two-qubit vector once its systems trade places:
# (i, j) at 2i + j goes to (j, i) at 2j + i.
SWAP_ORDER = [0, 2, 1, 3]


def swap_systems(amps_or_rho: np.ndarray) -> np.ndarray:
    """A two-qubit 4-vector or 4x4 density, first system major, with its two
    systems exchanged: SWAP v, or SWAP rho SWAP."""
    m = np.asarray(amps_or_rho, dtype=complex)
    if m.ndim == 1:
        return m[SWAP_ORDER]
    return m[np.ix_(SWAP_ORDER, SWAP_ORDER)]


# The story's ten statements as data, in the story's order: (id, axioms
# used, counterfactual, derived from).
STORY = (
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


def trace_walk(axioms: str, allow_counterfactual: bool, admitted) -> dict:
    """The agents' trace, walked per call over :data:`STORY`: the admitted
    statements whose axioms are all enabled (a string of Q, C, S), none
    without Q; counterfactual ones only if allowed.  A contradiction exists
    iff an active statement is counterfactual; its witness is the (Wbar, W)
    outcome (okbar, ok), composed 0 by the chain and measured by the Born
    rule; the minimal statements are the active counterfactual ones with no
    active counterfactual ancestor, found by walking the parents."""
    by_id = {sid: (used, cf, parents) for sid, used, cf, parents in STORY}
    admitted_ids = tuple(by_id) if admitted is None else tuple(admitted)
    if "Q" not in axioms:
        return {"active": (), "contradiction": False, "witness": None, "minimal": ()}
    active = tuple(
        sid
        for sid, (used, cf, _) in by_id.items()
        if sid in admitted_ids and set(used) <= set(axioms) and (allow_counterfactual or not cf)
    )
    active_cf = [sid for sid in active if by_id[sid][1]]

    def ancestors(sid: str) -> set[str]:
        seen: set[str] = set()
        stack = list(by_id[sid][2])
        while stack:
            parent = stack.pop()
            if parent not in seen:
                seen.add(parent)
                stack.extend(by_id[parent][2])
        return seen

    witness = None
    if active_cf:
        actual = float(abs(np.vdot(outcome_vector("okbar", "ok"), HARDY)) ** 2)
        witness = ("Wbar,W", ("okbar", "ok"), 0.0, actual)
    return {
        "active": active,
        "contradiction": bool(active_cf),
        "witness": witness,
        "minimal": tuple(sid for sid in active_cf if not ancestors(sid) & set(active_cf)),
    }
