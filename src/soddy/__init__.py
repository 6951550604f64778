"""Distance geometry of mutually tangent circles and spheres.

Exact rational Cayley-Menger determinants, curvature solving for tangent
configurations in any dimension, an executable audit of the matrix
identities behind them, float realization of centers, and Apollonian gasket
generation with deterministic SVG output.

``import soddy`` loads no submodule: each public name, and each submodule
attribute such as ``soddy.gasket``, imports its defining submodule on first
use (PEP 562), so a caller pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

#: Each public name under the submodule that defines it.
_EXPORTS = {
    "cayley_menger": (
        "SquaredDistanceMatrix", "VolumeSquared", "build_cm_matrix", "cm_determinant",
        "heron_area_squared", "heron_area_squared_from_squares", "is_degenerate", "volume_squared",
        "volume_squared_from_coordinates",
    ),
    "embedding": ("EmbeddedPoints", "append_point", "realize_points"),
    "errors": (
        "AmbiguousSolutionError", "DimensionError", "FloatModeRequiredError", "GeometryError",
        "InconsistentConfigurationError", "ModeMismatchError", "NegativeEigenvalueError",
        "NonFiniteError", "NoRealSolutionError", "NoSolutionError", "RankExceedsDimError",
        "SeedError", "SoddyError", "ValidationError",
    ),
    "gasket": (
        "Circle", "Gasket", "gasket_to_dict", "generate", "initial_configuration", "render_svg",
    ),
    "numeric": ("EXACT", "FLOAT", "Matrix", "Scalar", "determinant"),
    "proof_witness": (
        "IdentityCheck", "ProofReport", "build_P", "build_Q", "build_S", "build_U", "build_W",
        "check_reduction_chain", "check_S_properties", "check_UWU_congruence",
        "s_determinant_formula", "s_inverse_formula",
    ),
    "serialize": (),  # no public names; listed so that soddy.serialize resolves
    "tangency": (
        "Curvatures", "SignedRadii", "curvatures_from_radii", "descartes_residual",
        "factored_volume_squared", "radii_from_curvatures", "solve_missing_curvature",
        "tangency_squared_distances", "validate_curvatures", "validate_radii", "vieta_partner",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
