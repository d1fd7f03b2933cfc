"""Exact rational absorption measures on subextension lattices of finite groups.

The exports are bound lazily (PEP 562): reading any name from the
package, such as `fmeas.mu1` or `from fmeas import mu1`, imports every
module of the library at once and binds every name in __all__.
`import fmeas.cli` reads none, so a command loads only the modules the
CLI imports; it loads the Frattini/embedding and inverse-system modules
only for the commands and verify suites that run them.
"""

__version__ = "0.1.0"

# the modules that define the exports; the CLI is loaded on its own
_MODULES = ("backend", "frattini", "groups", "invsys", "lattice", "measure", "setupfile")

__all__ = [
    "BACKEND",
    "CapExceeded",
    "CompleteSystem",
    "EmbeddingReport",
    "FiniteGroup",
    "FrattiniReport",
    "GaloisSetup",
    "GroupError",
    "GroupHom",
    "LoadedSetup",
    "MeasureVector",
    "PushforwardReport",
    "SetupFileError",
    "Subgroup",
    "SubextLattice",
    "SystemEmbedding",
    "TransitionMatrix",
    "TUPLE_CAP",
    "all_subgroups",
    "build_group",
    "complete_system",
    "compose",
    "cyclic",
    "dicyclic",
    "dihedral",
    "direct_product",
    "dual_embedding",
    "dual_group",
    "epimorphisms",
    "format_rational",
    "frattini_subgroup",
    "generated_subsystem",
    "has_embedding_property",
    "image_classes",
    "is_frattini_cover",
    "is_frattini_restriction",
    "isomorphic",
    "level_quotient",
    "load_setup",
    "make_setup",
    "measure_event",
    "mu1",
    "mu_i",
    "mu_infinity",
    "pushforward_check",
    "quotient",
    "s_lattice",
    "semidirect_product",
    "symmetric",
    "transition_matrix",
]


def __getattr__(name: str):
    """Import every module of the library and bind every export, then read name.

    All at once, not one module per name: after the first read the
    package holds what an eager import would have bound, every module
    among them.
    """
    from importlib import import_module

    spaces = [vars(import_module("." + module, __name__)) for module in _MODULES]
    namespace = globals()
    for export in __all__:
        namespace[export] = next(space[export] for space in spaces if export in space)
    if name in namespace:
        return namespace[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
