"""weylgpd: Cartan graphs, root systems, and exact chamber geometry.

The package realizes both directions of the correspondence between connected
simply connected Cartan graphs admitting a root system and crystallographic
simplicial arrangements: generate real roots and chambers from a graph, or
recover the graph from a table of root covectors, entirely in exact rational
arithmetic.

`import weylgpd` loads no submodule: each exported name is imported from its
submodule on first access (PEP 562), so a command-line process loads only
the modules its command runs.
"""

import importlib

_EXPORTS = {
    "_rational": ("BACKEND", "Rat", "rat"),
    "arrangement": (
        "Affine",
        "Chamber",
        "Gallery",
        "RootSystemTable",
        "Spherical",
        "Truncated",
        "adjacent_chamber",
        "cartan_matrix_at",
        "chamber_from_point",
        "check_additive",
        "check_crystallographic",
        "check_k_spherical",
        "distance_and_gallery",
        "extract_cartan_graph",
        "is_nondegenerate",
        "radical",
        "verify_combinatorial_equivalence",
        "walls_and_root_basis",
    ),
    "cartan": (
        "CartanGraph",
        "GeneralizedCartanMatrix",
        "Morphism",
        "RealRootSet",
        "check_root_system_axioms",
        "check_simply_connected",
        "generate_real_roots",
        "m_ij",
        "m_ij_certified",
        "reflect",
        "residue",
        "validate_gcm",
    ),
    "exactlin": (
        "dual_basis",
        "primitive_normalize",
        "primitive_ray",
        "sign_at",
        "solve_coordinates",
        "vec",
    ),
    "realization": (
        "Realization",
        "adjacency_equivalences_test",
        "local_cartan_graph_at",
        "locate_point",
        "realize",
        "roundtrip_check",
        "separating_set",
    ),
    "subarr": (
        "Localization",
        "Restriction",
        "check_localization_crystallographic",
        "check_restriction_crystallographic",
        "double_restriction",
        "identify_rank2",
        "local_to_global_check",
        "localize",
        "reduce",
        "residue_correspondence_check",
        "restrict",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("builtins", "cli", "errors", "jsonio", *_EXPORTS))

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
