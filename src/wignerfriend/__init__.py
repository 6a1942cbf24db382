"""Desk-scale simulator of the two-qubit Wigner's-friend experiment built on
the Hardy state: exact measurement-context tables, discrete pilot-wave
trajectory sets under rival foliations, quantum-memory erasure versus
decoherence, agent-inference replay, and CHSH statistics against a local
hidden-variable model.

Import the submodules by name (``from wignerfriend import bohm``).  The
package imports none of them itself, so that a command-line call loads only
what its subcommand needs.
"""

__all__ = ["bell", "bohm", "cli", "epistemic", "hardy", "memory", "qcore"]
__version__ = "0.1.0"
