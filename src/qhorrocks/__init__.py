"""Vector bundles on the smooth quadric surface Q = P1 x P1 through exact linear algebra.

The package computes the classifying invariants of a bundle presented by an
explicit matrix of bihomogeneous forms: its first cohomology module M, the
auxiliary spinor-twisted companion modules, and the pair of socle subspaces
(W, V) that together pin down the bundle up to isomorphism once all split
ACM line-bundle summands are removed.  The reverse direction (building a
bundle from a valid triple) and an isomorphism test on triples are included,
along with a CLI, text file formats and a corpus of worked fixture matrices.
"""

from .exactla import DEFAULT_PRIME, Matrix, NoSolution, PrimeField, QhorrocksError, RationalField, get_field
from .bipoly import BiForm, ParseError, monomial_basis, parse_biform, sq_piece
from .linecoh import (
    FormMatrix,
    coh_action,
    coh_basis,
    euler_char,
    induced_h,
    is_acm_twist,
    is_free_twist,
    kunneth_dim,
    sheaf_surjective,
    split_h,
)
from .presheaf import (
    KerPresentation,
    MonadPresentation,
    line_bundle_table,
    solve_form_system,
    strip_acm,
)
from .flmod import (
    CompanionModules,
    FinLengthModule,
    InvalidModule,
    MinimalPresentation,
    minimal_generators,
    minimal_presentation,
    module_from_bundle,
    sigma_modules,
    socle_subspace,
)
from .horrocks import (
    AcmType,
    HorrocksTriple,
    acm_type,
    extract_invariants,
    four_term_check,
    roundtrip,
    synthesize,
    triple_iso,
)
from .stability import StabilityReport, jumping_determinants, le_potier_check
from .fixtures import fixture_names, load_fixture

__version__ = "0.1.0"
