"""Matchings between finite subsets of groups, with desk-scale theorem checks."""

from .errors import (
    CrossValidationError,
    EmptyInput,
    GroupMatchError,
    IdentityInB,
    MixedGroups,
    NotAGroup,
    NotApplicable,
    NotInA,
    ParseError,
    SizeLimit,
    SizeMismatch,
)
from .groups import (
    CATALOG_SPECS,
    GroupClassification,
    GroupTable,
    LatticeGroup,
    catalog,
    classify,
    cyclic_subgroup,
    direct_product,
    dumps_group,
    element_order,
    enumerate_subgroups,
    load_group_file,
    loads_group,
    make_cyclic,
    make_dihedral,
    make_quaternion,
    make_symmetric,
    parse_group_spec,
    save_group_file,
)
from .matching import (
    HallViolator,
    MatchabilityGraph,
    Matching,
    VerifyResult,
    brute_force_matching,
    build_graph,
    find_matching,
    verify_matching,
)
from .subsets import GroupSubset, parse_subset_literal
from .theorems import (
    CheckReport,
    CounterexamplePair,
    check_automatching,
    check_corollary,
    check_kemperman,
    check_lattice_matching,
    check_matching_property,
    check_olson,
    construct_counterexample,
    cross_validate_hall,
    sweep_corollary,
    sweep_hall,
    sweep_kemperman,
    sweep_olson,
)

__version__ = "0.1.0"
