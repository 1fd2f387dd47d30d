"""State-vector circuit simulation with a linear-time gradient engine."""

from .ansatz import FAMILIES, AnsatzSpec, build_ansatz, num_ansatz_params
from .circuit import (
    Circuit,
    CircuitParseError,
    CustomParametric,
    FixedUnitary,
    Gate,
    NonInvertibleGateError,
    NonUnitary,
    PauliRotation,
    Phase,
    apply_gate,
    apply_gate_derivative,
    apply_gate_inverse,
    circuit_to_text,
    crx,
    cry,
    crz,
    cx,
    fixed,
    gate_derivative,
    gate_matrix,
    parse_circuit,
    phase_gate,
    rp,
    rx,
    ry,
    rz,
)
from .gradients import (
    GradientReport,
    LiveStateAudit,
    OpCounters,
    finite_difference_gradient,
    merge_gradient,
    non_hermitian_gradient,
    reference_gradient,
    reverse_mode_gradient,
    uniquify_parameters,
)
from .observable import (
    BUILTIN_OBSERVABLES,
    Observable,
    ObservableParseError,
    adjoint_observable,
    apply_observable,
    builtin_observable,
    expectation,
    observable_to_text,
    parse_observable,
)
from .statevector import (
    StateVector,
    apply_matrix,
    clone_state,
    init_basis_state,
    inner_product,
    project_to_one,
)

__version__ = "0.1.0"
