"""Coherent H-infinity control toolbox for Markovian jump linear quantum systems.

Submodules:

* ``qmodel``: the canonical commutation matrix, rate matrices, plant/controller
  containers, and the upper-triangle coordinates of symmetric matrices
* ``realizability``: physical realizability checks and noise augmentation
* ``lmi``: strict LMI feasibility engine
* ``synthesis``: controller synthesis from coupled LMIs, and the closed-form
  certificate of a synthesized design from its own storage
* ``analysis``: closed-loop certification from the coupled bounded-real LMI
* ``jumpsim``: fault-path sampling and moment propagation
* ``optics``: OPO plant front end and optical controller realization
* ``demo``: bundled worked design example
"""

__version__ = "0.1.0"

from .qmodel import (  # noqa: F401,E402
    Controller,
    ControllerMode,
    ClosedLoop,
    JumpPlant,
    TransitionRateMatrix,
    assemble_closed_loop,
    block_j,
    make_commutation_matrix,
)
