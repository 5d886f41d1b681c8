"""What a process loads: `import weylgpd` loads no submodule, a command loads
the modules it runs, and no module loads `dataclasses`.  The tests assert
module sets, not times, so they hold on any machine."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import weylgpd

# The names `weylgpd/__init__` imported eagerly from each submodule before
# it exported them lazily.
FORMER_EXPORTS = {
    "_rational": ("BACKEND", "Rat", "rat"),
    "arrangement": (
        "Affine", "Chamber", "Gallery", "RootSystemTable", "Spherical", "Truncated", "adjacent_chamber",
        "cartan_matrix_at", "chamber_from_point", "check_additive", "check_crystallographic",
        "check_k_spherical", "distance_and_gallery", "extract_cartan_graph", "is_nondegenerate", "radical",
        "verify_combinatorial_equivalence", "walls_and_root_basis",
    ),
    "cartan": (
        "CartanGraph", "GeneralizedCartanMatrix", "Morphism", "RealRootSet", "check_root_system_axioms",
        "check_simply_connected", "generate_real_roots", "m_ij", "m_ij_certified", "reflect", "residue",
        "validate_gcm",
    ),
    "exactlin": ("dual_basis", "primitive_normalize", "primitive_ray", "sign_at", "solve_coordinates", "vec"),
    "realization": (
        "Realization", "adjacency_equivalences_test", "local_cartan_graph_at", "locate_point", "realize",
        "roundtrip_check", "separating_set",
    ),
    "subarr": (
        "Localization", "Restriction", "check_localization_crystallographic",
        "check_restriction_crystallographic", "double_restriction", "identify_rank2", "local_to_global_check",
        "localize", "reduce", "residue_correspondence_check", "restrict",
    ),
}

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(weylgpd.__path__))


def loaded_after(code: str) -> dict:
    """Run `code` in a fresh interpreter that imports weylgpd from this
    source tree; return the `weylgpd` submodules it loaded and whether it
    loaded `dataclasses`."""
    env = dict(os.environ)
    src = str(Path(weylgpd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    report = (
        "import sys, json\n"
        "print(json.dumps({'weylgpd': sorted(m for m in sys.modules if m.startswith('weylgpd.')),"
        " 'dataclasses': 'dataclasses' in sys.modules}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code + "\n" + report], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_weylgpd_loads_no_submodule():
    assert loaded_after("import weylgpd") == {"weylgpd": [], "dataclasses": False}


def loaded_by_cli(*argv: str) -> list:
    """The `weylgpd` submodules that `python -m weylgpd.cli <argv>` loads; the
    command must exit 0."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['weylgpd', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('weylgpd.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    return loaded_after(code)["weylgpd"]


def test_validate_loads_neither_realization_nor_subarr():
    loaded = loaded_by_cli("validate", "a2")
    assert "weylgpd.cartan" in loaded
    assert "weylgpd.realization" not in loaded and "weylgpd.subarr" not in loaded


@pytest.mark.parametrize("argv", [("validate", "a2"), ("--depth", "16", "roots", "a2")])
def test_commands_on_a_graph_leave_the_chamber_geometry_unloaded(argv):
    """`validate` of a matrix and `roots` run no chamber geometry, so they
    do not load `arrangement`."""
    loaded = loaded_by_cli(*argv)
    assert "weylgpd.builtins" in loaded and "weylgpd.jsonio" in loaded
    assert "weylgpd.arrangement" not in loaded


def test_validate_of_a_table_loads_the_chamber_geometry(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"rank": 1, "roots": [["1"], ["-1"]]}))
    assert "weylgpd.arrangement" in loaded_by_cli("validate", str(path))


LAYER4_MODULES = ["_rational", "_record", "arrangement", "builtins", "cartan", "errors", "exactlin", "jsonio", "subarr"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (("restrict", "f4", "--root", "0,1,-1,0"), []),
        (("restrict", "f4", "--root", "0,1,-1,0", "--root", "0,0,1,-1"), []),
        (("localize", "f4", "--point", "1,1,0,0"), []),
        (("f4-demo",), ["realization"]),
    ],
)
def test_restriction_and_localization_commands_load_their_modules(argv, extra):
    """`restrict` and `localize` on F4 load the chamber geometry and
    `subarr`, not `realization`; `f4-demo` loads `realization` too, for its
    rank-2 references."""
    assert loaded_by_cli(*argv) == [f"weylgpd.{name}" for name in sorted(LAYER4_MODULES + extra)]


def test_no_module_loads_dataclasses():
    assert "cli" in SUBMODULES and "realization" in SUBMODULES
    loaded = loaded_after("\n".join(f"import weylgpd.{name}" for name in SUBMODULES))
    assert loaded == {"weylgpd": [f"weylgpd.{name}" for name in SUBMODULES], "dataclasses": False}


def test_every_former_export_resolves_to_its_submodule_object():
    exports = [name for names in FORMER_EXPORTS.values() for name in names]
    assert sorted(weylgpd.__all__) == sorted(exports)
    assert set(exports) <= set(dir(weylgpd))
    for module, names in FORMER_EXPORTS.items():
        home = importlib.import_module(f"weylgpd.{module}")
        for name in names:
            assert getattr(weylgpd, name) is getattr(home, name), name
    from weylgpd import arrangement

    assert arrangement is sys.modules["weylgpd.arrangement"] is weylgpd.arrangement
    with pytest.raises(AttributeError, match="no_such_name"):
        weylgpd.no_such_name


def test_a_submodule_resolves_through_the_module_getattr():
    assert weylgpd.__getattr__("jsonio") is importlib.import_module("weylgpd.jsonio")
