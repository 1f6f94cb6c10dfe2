"""The package's public surface: each module declares its names once, in
its ``__all__``, and ``lgwigner`` re-exports them as the same objects."""

import importlib

import lgwigner

#: Module -> the public names it exported before the package built its
#: ``__all__`` from the modules' lists; none of them may go missing.
EXPORTED = {
    "specfun": (
        "MAX_DEGREE", "hermite_poly", "hermite_function", "hermite_function_table",
        "hermite_function_derivative", "laguerre",
    ),
    "modes": (
        "ANNIHILATED", "Basis", "LadderOp", "ModeIndex", "apply_operator_pointwise",
        "hg_field", "hg_mode", "ladder_index_action", "lg_field", "lg_mode",
    ),
    "wigner": (
        "DEFAULT_QUAD", "Grid2D", "PhasePoint4", "QuadratureSpec", "extended_wigner",
        "extended_wigner_grid", "extended_wigner_rotfft", "wigner1d", "wigner1d_grid",
        "wigner2d", "wigner_hermite_closed", "wigner_hg_closed", "wigner_hg_diag",
        "wigner_lg_closed", "wigner_lg_diag",
    ),
    "beam": ("BeamGeometry", "BeamIndex", "BeamParams", "beam_field", "beam_geometry"),
    "verify": ("CheckResult", "SuiteReport", "SUITE_NAMES", "run_suite", "weyl_pairing_check"),
}


def test_package_exports_every_module_name_as_the_same_object():
    assert sum(map(len, EXPORTED.values())) == 41
    declared = []
    for module_name, names in EXPORTED.items():
        module = importlib.import_module(f"lgwigner.{module_name}")
        assert set(names) <= set(module.__all__)
        for name in module.__all__:
            assert getattr(lgwigner, name) is getattr(module, name)
        declared += module.__all__
    assert len(set(declared)) == len(declared)
    assert sorted(lgwigner.__all__) == sorted(declared + ["__version__"])
    # the two module-level tables that became package names
    assert {"SUITE_CHECKS", "SIGMA_SYMBOLS"} <= set(lgwigner.__all__)
