"""Entropy production of a qubit under a generalized amplitude damping
thermal channel, decomposed into population and coherence parts, with a
shot-noise-faithful simulation of four-basis optical tomography."""

from .budget import EntropyBudget, IndeterminateEntropyError, budget
from .channel import (
    BathSpec, GadChannel, apply, channel_for, compose, equilibrium_state,
    evolve_master_equation, p_from_temperature, r_from_time,
)
from .check import run_property_suite
from .prep import PrepSetting, alpha_for_coherence, prepare
from .qstate import QubitState, relative_entropy
from .sweep import (
    SWEEP_DTYPE, SweepConfig, blocks, emit_csv, emit_summary, fig2_config, fig3_config,
    load_config,
)

__version__ = "0.11.0"
