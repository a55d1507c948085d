"""Entropy production of a qubit under a generalized amplitude damping
thermal channel, decomposed into population and coherence parts, with a
shot-noise-faithful simulation of four-basis optical tomography."""

from .budget import (
    EntropyBudget, IndeterminateEntropyError, budget, coherence_production,
    population_production, total_production,
)
from .channel import (
    BathSpec, GadChannel, apply, channel_for, compose, equilibrium_state,
    evolve_master_equation, kraus_operators, lindblad_derivative, p_from_temperature,
    r_from_time,
)
from .check import run_property_suite
from .prep import PrepSetting, alpha_for_coherence, prepare
from .qstate import (
    QubitState, dephase, fidelity, l1_coherence, rel_entropy_coherence,
    relative_entropy, validate, von_neumann_entropy,
)
from .sweep import (
    SWEEP_DTYPE, SweepConfig, emit_csv, emit_summary, fig2_config, fig3_config,
    load_config, run_sweep,
)
from .tomography import project_to_physical

__version__ = "0.4.0"
