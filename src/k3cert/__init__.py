"""Picard rank bounds and certificates for degree-2 K3 surfaces w^2 = f6(x,y,z).

Point counts over F_{p^d} at a single odd prime p determine the Frobenius
characteristic polynomial on second cohomology; its cyclotomic part bounds
the geometric Picard rank from above.  Tritangent lines of the branch
sextic carry an explicit second-order lifting obstruction that can pin the
rank exactly, and lattice utilities handle the intersection-form side.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    ChainHypothesisError,
    CommonZeroOnLineError,
    InconsistentTracesError,
    MathError,
    NotDivisibleError,
    SingularReductionError,
    WeilBoundError,
)
from .ffield import (
    FieldCtx,
    FieldElem,
    Poly,
    embed_subfield,
    field_create,
    quad_char,
)
from .forms import (
    BinaryForm,
    IntForm,
    ModForm,
    eval_form,
    perfect_square_split,
    reduce_mod,
    restrict_to_line,
)
from .count import (
    CacheStore,
    CountRecord,
    CountSeries,
    count_points,
    count_series,
    trace_from_count,
)
from .zeta import (
    FrobeniusPoly,
    RankBound,
    char_poly_from_traces,
    cyclotomic_part,
    determine_sign,
    predicted_count,
)
from .geom import (
    ConicCert,
    SingularityReport,
    TritangentCert,
    decompose_along_line,
    find_tritangents,
    smoothness_check,
    verify_conic_identity,
)
from .obstruct import (
    ObstructionReport,
    lifts_to_second_order,
    obstruction_G,
    obstruction_vanishes,
)
from .lattice import (
    AdaptedBasis,
    LatticeChain,
    adapted_basis,
    gram_rank_disc,
    smith_normal_form,
    square_class_equal,
    verify_chain,
)
