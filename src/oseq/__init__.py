"""Order-sequence calculus for finite groups.

Enumerated groups, the run-length-encoded order sequence, the domination
partial order, sequence products, nilpotency/supersolvability/solvability,
and the constructors and verification suites behind the ``oseq`` CLI.
"""

from .classify import (
    ClassificationReport,
    classify_group,
    derived_series,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    lower_central_series,
    supersolvable_chain,
)
from .construct import (
    ActionMap,
    ConstructionError,
    alternating,
    catalog,
    catalog_names,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    frobenius42,
    frobenius56,
    heisenberg,
    psl2,
    semidirect_product,
    suzuki8,
    symmetric,
    trivial_action,
    wreath_square,
)
from .expr import ParseError, build, parse, print_expr
from .finite_field import FieldError, FieldSpec, field_make
from .fixtures import Fixture, FixtureError, default_fixtures, load_fixtures
from .groups import (
    Group,
    GroupError,
    SubgroupSet,
    commutator_subgroup,
    enumerate_group,
    subgroup_closure,
)
from .order_sequence import (
    OrderSequence,
    SequenceError,
    Verdict,
    compare,
    format_sequence,
    is_plausible,
    nilpotent_from_os,
    os_cyclic,
    os_of_group,
    os_product,
    parse_pairs,
    parse_sequence,
    psi,
)
from .poset import Corpus, CorpusEntry, PosetResult, build_poset, domination_pairs, to_csv, to_dot

__version__ = "0.1.0"
