"""Exact Gelfand-model computations for the complex reflection groups
G(r,p,q,n): colored permutations, cyclotomic arithmetic, insertion
tableaux, conjugacy classes, irreducible characters, and the involution
module with its verified decomposition.

Importing the package loads none of its modules: each public name is
imported from its defining module on first access and kept."""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", ("InconsistencyError", "ResourceLimitError", "UnsupportedGroupError")),
        ("cyclotomic", ("Cyclotomic", "zeta")),
        (
            "colored",
            (
                "ColoredPermutation",
                "ProjectiveElement",
                "absolute_conjugate",
                "all_elements",
                "antisymmetric_elements",
                "check_group_parameters",
                "group_order",
                "parse_window",
                "projective_conjugate",
                "subgroup_elements",
                "symmetric_elements",
            ),
        ),
        (
            "shapes",
            (
                "ShapeOrbit",
                "count_standard",
                "enumerate_orbits",
                "enumerate_shapes",
                "enumerate_standard",
                "multitableau_shape",
                "multitableau_shift",
                "partitions",
                "shape_str",
            ),
        ),
        (
            "rs",
            (
                "involution_from_tableau",
                "involution_tableau",
                "projective_rs",
                "rs",
                "rs_inverse",
                "shape_of",
            ),
        ),
        (
            "classes",
            (
                "ConjugacyClass",
                "InvolutionClassType",
                "class_of",
                "class_size",
                "enumerate_classes",
                "enumerate_involution_classes",
                "involution_type",
                "normal_element",
                "predicted_shapes",
                "splits",
            ),
        ),
        (
            "characters",
            (
                "ClassFunction",
                "IrreducibleLabel",
                "character_table",
                "decompose",
                "delta1",
                "inner_product",
                "irreducible_count",
                "label_degree",
                "rows_independent",
                "sym_character",
                "wreath_character",
            ),
        ),
        (
            "model",
            (
                "ClassVerification",
                "ModelAction",
                "ModelBasis",
                "VerificationReport",
                "a_statistic",
                "gelfand_check",
                "inv_statistic",
                "model_action",
                "model_character",
                "pairing",
                "predicted_labels",
                "verify_class_decomposition",
            ),
        ),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    elif name in _EXPORTS.values():
        # a defining module, as an attribute of the package
        value = import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each loaded module on its package; a
        # public name shared with its module (gelfand.rs, the insertion
        # function) keeps naming the function, whatever the import order.
        if name in _EXPORTS and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
