"""Untimed warm-up calls of each workload, and the set-up probe.

Run as a script, it is one set-up measurement: a fresh interpreter that
imports ``wignerfriend.cli`` and then makes the workload's warm-up calls.
The caller times the whole process.

    python3 bench/warmup.py exact_queries
"""

from __future__ import annotations

import sys


def _exact_queries() -> None:
    from wignerfriend import bohm, epistemic, hardy, memory, qcore

    state = hardy.hardy_state()
    for ctx in hardy.ALL_CONTEXTS:
        qcore.born_distribution(state, ctx.bases)
    memory.record_and_keep(state, (memory.Friend.F,)).tables()
    memory.record_and_erase(state, memory.Friend.FBAR, state.bases[0])
    bohm.evolve(bohm.FOLIATION_F)
    bohm.compare_foliations(bohm.INDEPENDENT)
    bohm.sample_paths(bohm.FOLIATION_FPRIME, samples=1000, seed=0)
    epistemic.run_trace()


def _chsh_max() -> None:
    from wignerfriend import bell, memory

    pair = bell.singlet()
    kept = memory.record_and_keep(pair, (memory.Friend.F,)).final_state
    bell.quantum_correlation(0.1, 0.2, pair)
    bell.quantum_correlation(0.1, 0.2, kept)
    model = bell.observer_independent_facts_model()
    bell.chsh_scan(lambda a, b: bell.lhv_correlation(model, a, b), 4)


def _cli_cold() -> None:
    """Each CLI call is a fresh process: nothing in this one can warm it."""


WARMUPS = {"cli_cold": _cli_cold, "exact_queries": _exact_queries, "chsh_max": _chsh_max}


if __name__ == "__main__":
    import wignerfriend.cli  # noqa: F401  (the import is what is measured)

    WARMUPS[sys.argv[1]]()
