"""zrbr: pseudospectral solver for a Schrodinger-acoustic envelope system
plus the numerical machinery for checking the dispersive estimates behind
its local well-posedness theory."""

from .bourgain import (
    NO_DISPERSION,
    SCHRODINGER,
    WAVE_MINUS,
    WAVE_PLUS,
    Dispersion,
    SpaceTimeField,
    free_evolution,
    linear_estimate_ratio,
    mixed_norm,
    random_band_limited,
    retarded_convolution,
    smooth_cutoff,
    strichartz_ratio,
    xsb_norm,
    ys_norm,
)
from .config import SimConfig, h1_norm, make_initial_state
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DivergenceError,
    PreconditionError,
    SingularityError,
    ZRBRError,
)
from .evolution import (
    PicardReport,
    Trajectory,
    picard_iterate,
    run_simulation,
    strang_step,
)
from .exponents import (
    ExponentParams,
    bracket,
    bracket_plus,
    check_constraints,
    derive,
    region_scan,
    strichartz_exponents,
    theta_values,
    verify_symbolic_inequalities,
)
from .model import (
    ModelParams,
    PlusMinusState,
    ZRState,
    decompose,
    energy,
    mass,
    recombine,
)
from .spectral import ComplexField, Grid, make_multiplier

__version__ = "0.1.0"
