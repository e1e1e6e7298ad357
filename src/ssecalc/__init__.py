"""ssecalc: exact calculus of strong shift equivalences between vertex
shifts, sliding block codes, and the simplicial complexes built on them."""

__version__ = "0.1.0"

from .matrices import (  # noqa: F401
    IndexSet,
    NonnegMatrix,
    core_indices,
    e_s_matrix,
    is_nondegenerate,
    mul,
    submatrix,
)
from .shifts import VertexShift, higher_block  # noqa: F401
from .codes import (  # noqa: F401
    BlockCode,
    compose,
    equal_codes,
    identity_code,
    is_elementary,
    normalize,
    shift_code,
    verify_inverse,
)
from .elementary import (  # noqa: F401
    DegSSEEdge,
    SSEEdge,
    Triangle,
    check_triangle,
    code_from_edge,
    edge_from_code,
)
from .refinement import (  # noqa: F401
    RefinementVerdict,
    StarImage,
    delta,
    equivalent,
    group_refine,
    star,
    verify_refinement_axioms,
)
from .williams import DecompositionStep, decompose, reduce_inverse_window, reduce_window  # noqa: F401
from .complexes import (  # noqa: F401
    ComplexFragment,
    SSEPath,
    automorphism_from_loop,
    compose_path,
    explore,
    homotopic,
)
from .degenerate import deg_triangulate, normalize_path, restrict_triangle  # noqa: F401
from .groups import FiniteGroup, cyclic_group, symmetric_group  # noqa: F401
from .gsft import GroupRingMatrix, MarkedGGraph, bar, equivariant_triangle, hat, mark_and_relabel  # noqa: F401
from .cayley import FGGroupWindow, TableGroup, ZdGroup, is_connected, reduction_schedule  # noqa: F401
from .freudenthal import (  # noqa: F401
    Chain,
    FreudenthalSimplex,
    OrderedComplex,
    boundary,
    chain_f,
    chain_rho,
    enumerate_subdivision,
    subdivision_operator,
    theta,
)
