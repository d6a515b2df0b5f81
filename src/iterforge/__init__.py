"""iterforge: iterates of a binary operation, their tableaux, reducibility
counts, semantic-equality closures, and skein/Catalan machinery.

The public names load on first access (PEP 562), so `import iterforge`
and a command-line process load only the modules they use.
"""

from importlib import import_module

# home module -> the public names it exports through the package
_EXPORTS = {
    "errors": (
        "BadArity", "CompositionNotWellDefined", "EngineError", "IllFoundedRecursion",
        "IndexOutOfRange", "InvalidSpec", "MalformedWord", "NonIntegralTerm",
        "OrderMismatch", "OrderOverflow", "OrderZero", "PositionOutOfRange", "UnknownLabel",
    ),
    "incidence": (
        "MODE_A", "MODE_AB", "IncidenceMatrix", "count_reducible", "delta_oracle",
        "frequency_report", "i_n_formula", "incidence_matrix", "row_sum_value", "t_nk_aplusb",
    ),
    "polynomials": (
        "PowerSeries", "SkeinPoly", "catalan_convolution", "catalan_general", "catalan_relative",
        "collision_groups", "convolution_relation_check", "np_recursion_check", "series_mixed",
        "skein", "skein_levels", "skein_q", "weighted_recurrence",
    ),
    "semantics": (
        "ClosureConfig", "ClosureState", "IdentitySpec", "Verdict", "classify_identity",
        "classnumbers", "close", "column_pair_survey", "compose_classes", "formal_cascade",
        "h_formula_a", "h_formula_b", "implication_pairs", "singletons", "unicity_bounds_check",
    ),
    "tableaux": ("Catalog", "CatalogCache", "Universe", "t_nk"),
    "terms": (
        "LEAF", "Term", "all_terms", "ballot", "ballot_row", "catalan", "cherries", "decompose",
        "node", "parse_word", "render_word", "run_length_code", "substitute_cherry",
        "validate_word_diophantine",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a home module itself, reached as an attribute
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
