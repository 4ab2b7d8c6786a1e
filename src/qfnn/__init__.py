"""Simulator for quantum feedforward neural networks of two-state neurons.

The pieces fit together like this: ``qstate`` holds register states and
their readout, ``gates`` builds four-angle single-neuron unitaries,
``boolfn`` holds the truth tables that synaptic steps XOR into their
targets, ``network`` wires layers and runs every history through one step
runner on the reachable basis branches, ``environment`` averages networks
over wave packets on the four-torus of gate angles, ``analysis`` packages
scenario checks, and ``cli`` exposes all of it as the ``qfnn`` command.
"""

from .errors import ParseError
from .qstate import (
    MAX_QUBITS,
    DensityMatrix,
    MeasureBasis,
    StateVector,
    measure_probabilities,
    reduced_density,
    von_neumann_entropy,
)
from .gates import (
    GateParams,
    HADAMARD,
    HADAMARD_PARAMS,
    IDENTITY,
    IDENTITY_PARAMS,
    NOT,
    NOT_PARAMS,
    fixed_gate,
    is_unitary,
    psi_amplitudes,
    u2_from_params,
)
from .boolfn import (
    BooleanFunction,
    format_truth_table,
    parse_truth_table,
)
from .network import (
    BooleanStep,
    NetworkSpec,
    TruthTableReport,
    UnitaryStep,
    boolean_network_for,
    branch_amplitudes,
    complementarity_network,
    hadamard_variant_network,
    input_layer,
    run_history,
    verify_truth_table,
    xor_network,
)
from .environment import (
    DEFAULT_TRUNCATION,
    WavePacket,
    averaged_density,
    averaged_ensemble,
    eigenfunction,
    energy,
    evaluate_packet,
    parse_packet,
    purity,
    random_packet,
)
from .analysis import (
    ScenarioReport,
    averaged_dynamics_check,
    boolean_mn_check,
    complementarity_check,
    hadamard_variant_check,
    table1_check,
    table2_check,
    xor_reflexivity_check,
)

__version__ = "0.1.0"
