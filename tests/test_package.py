import importlib
import pkgutil
import subprocess
import sys

import pytest

import siltglue

# the package namespace as it stood when every submodule was imported
# eagerly: the exported names plus the eight submodules themselves
ALL = [
    "Arc", "DimVector", "ExpansionSpec", "ExplicitRep", "Generic",
    "GlueOutcome", "Lukas", "Mat", "NilpRep", "Preinjective", "Preprojective",
    "ProjMorphism", "ProjSum", "Pruefer", "Regular", "Scalar", "Seed",
    "TiltingSpec", "TubeCtx", "TubeData", "TwoTermComplex", "ar_translate",
    "bongartz_extension", "choose_seed", "classify_silting", "complexes",
    "crossings", "cyclic_oracle", "decompose", "derived_hom_dim",
    "dim_vector", "enumerate_maximal_rigid", "enumerate_single_tube_specs",
    "euler_form", "exactlin", "expansion", "explicit_rep", "ext_dim",
    "ext_dim_arcs", "ext_dim_objects", "ext_dim_oracle", "extension_middle",
    "glue", "glue_kronecker", "glue_left", "glue_right", "hom_dim",
    "hom_dim_arcs", "hom_dim_objects", "hom_dim_oracle", "in_d_class",
    "in_positive_perp", "in_y_class", "is_maximal_rigid", "is_rigid",
    "is_tilting_module", "kernel_basis", "kronecker", "minimize",
    "normalize", "parse_arc", "parse_expansion_spec", "parse_object",
    "parse_spec", "phi_surjective", "presentation_of",
    "presentation_of_object", "push_forward", "quotient_arcs",
    "quotient_by_idempotent_trace", "rank", "reduce_left", "reduce_right",
    "render_arc", "render_object", "rep_of_arc", "round_trip",
    "serialize_spec", "shifted_projective", "silting", "socle", "solve",
    "stalk_complex", "subobject_arcs", "tau_arc", "top",
    "translation_quiver_dot", "tube", "universal_extension",
    "verify_tilting_spec",
]

SUBMODULES = {"complexes", "cyclic_oracle", "exactlin", "expansion", "glue",
              "kronecker", "silting", "tube"}


def test_all_is_unchanged():
    assert siltglue.__all__ == ALL


def test_each_name_is_its_submodules_own_object():
    for name in ALL:
        if name in SUBMODULES:
            want = importlib.import_module(f"siltglue.{name}")
        else:
            want = getattr(importlib.import_module(
                f"siltglue.{siltglue._HOME[name]}"), name)
        assert getattr(siltglue, name) is want, name


def test_a_rebinding_in_the_submodule_shows_through(monkeypatch):
    from siltglue import kronecker
    monkeypatch.setattr(kronecker, "decompose", len)
    assert siltglue.decompose is len


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        siltglue.no_such_name
    assert not hasattr(siltglue, "sylvester_rows")


def test_star_import_binds_every_name():
    code = ("from siltglue import *\n"
            f"missing = [n for n in {ALL!r} if n not in globals()]\n"
            "assert not missing, missing\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_importing_the_package_loads_no_submodule():
    code = ("import sys, siltglue\n"
            "print(sorted(m for m in sys.modules if m.startswith('siltglue')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout == "['siltglue']\n"
    assert set(dir(siltglue)) >= set(ALL)


def test_every_cache_is_bounded():
    # each cache once, under the module that defines it
    caches = {}
    for info in pkgutil.iter_modules(siltglue.__path__):
        module = importlib.import_module(f"siltglue.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_parameters"):
                name = f"{obj.__module__}.{obj.__qualname__}"
                caches[name.removeprefix("siltglue.")] = obj.cache_parameters()
    assert set(caches) == {"complexes.derived_hom_dim",
                           "cyclic_oracle._uniserial",
                           "cyclic_oracle._hom_ext_oracle",
                           "kronecker.explicit_rep", "kronecker.hom_dim",
                           "silting._minimal_presentation",
                           "silting._glue_base", "tube.tube_ctx"}
    for name, params in caches.items():
        assert params["maxsize"] is not None, name
