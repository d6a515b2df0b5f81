"""The engine's records keep their contract: fields are read-only, equal
values compare and hash equal, and their text forms and defaults hold."""

import pytest

from iterforge import (
    ClosureConfig,
    IdentitySpec,
    PowerSeries,
    Universe,
    close,
    column_pair_survey,
    convolution_relation_check,
    frequency_report,
    incidence_matrix,
    run_length_code,
    unicity_bounds_check,
    weighted_recurrence,
)
from iterforge.semantics import ESSENTIAL_UP_TO, FORMALLY_REDUCIBLE, SEMANTICALLY_REDUCIBLE, FormulaSurvey, Verdict
from iterforge.verify import VerifyReport


@pytest.fixture(scope="module")
def frozen():
    """Each frozen record by type name, with one of its fields."""
    universe = Universe(5)
    state = close(IdentitySpec.of(3, (1, 5)), ClosureConfig(5, "AB", True), universe)
    convolution = convolution_relation_check(2, 10)
    return {
        "IdentitySpec": (state.spec, "pairs"),
        "ClosureConfig": (state.config, "mode"),
        "Verdict": (Verdict(FORMALLY_REDUCIBLE, 7), "kind"),
        "BoundsReport": (unicity_bounds_check(universe, state), "ok"),
        "ColumnSurvey": (column_pair_survey(universe, 3, 5), "column_verdicts"),
        "FormulaSurvey": (FormulaSurvey(7, (1,), {}), "sequences"),
        "FrequencyRow": (frequency_report(3)[0], "ratio"),
        "RecurrenceTerm": (weighted_recurrence(2, 1, [1, 1], 4, strict=False)[-1], "value"),
        "ConvolutionReport": (convolution, "relation3_ratio"),
        "VerifyReport": (VerifyReport(4, 7, []), "checks"),
        "RunLengthCode": (run_length_code("VVxxVxx"), "pairs"),
        "IncidenceMatrix": (incidence_matrix(universe, 3), "signatures"),
        "PowerSeries": (PowerSeries((1, 1, 2)), "coeffs"),
    }


FROZEN = [
    "IdentitySpec", "ClosureConfig", "Verdict", "BoundsReport", "ColumnSurvey", "FormulaSurvey",
    "FrequencyRow", "RecurrenceTerm", "ConvolutionReport", "VerifyReport",
    "RunLengthCode", "IncidenceMatrix", "PowerSeries",
]


@pytest.mark.parametrize("name", FROZEN)
def test_setting_a_field_raises_attribute_error(frozen, name):
    record, field = frozen[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = None
    assert getattr(record, field) is before


def test_equal_values_compare_and_hash_equal():
    pairs = [
        (IdentitySpec.of(3, (5, 1), (2, 4)), IdentitySpec.of(3, (2, 4), (1, 5))),
        (ClosureConfig(), ClosureConfig(7, "AB", False)),
        (ClosureConfig(5, mode="A"), ClosureConfig(5, "A", unicity=False)),
        (Verdict(SEMANTICALLY_REDUCIBLE, 7, ((3, 1, 5),)), Verdict(SEMANTICALLY_REDUCIBLE, 7, ((3, 1, 5),))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert IdentitySpec.of(3, (1, 5)) != IdentitySpec.of(3, (1, 4))
    assert ClosureConfig(5, "A") != ClosureConfig(5, "B")
    assert Verdict(ESSENTIAL_UP_TO, 7) != Verdict(ESSENTIAL_UP_TO, 8)
    assert PowerSeries((1, 2)) == PowerSeries((1, 2)) and hash(PowerSeries((1, 2))) == hash(PowerSeries((1, 2)))
    assert PowerSeries((1, 2)) != PowerSeries((1, 3))


def test_text_forms_and_defaults_are_unchanged():
    assert str(Verdict(ESSENTIAL_UP_TO, 7)) == "essential-up-to 7"
    assert str(Verdict(FORMALLY_REDUCIBLE, 7)) == "formally-reducible"
    assert str(Verdict(SEMANTICALLY_REDUCIBLE, 6, ((3, 1, 5),))) == "semantically-reducible"
    assert repr(Verdict(FORMALLY_REDUCIBLE, 7)) == "Verdict(kind='formally-reducible', bound=7, witness=None)"
    config = ClosureConfig()
    assert (config.max_order, config.mode, config.unicity) == (7, "AB", False)
    assert IdentitySpec.of(3, (5, 1)).pairs == ((1, 5),)
    assert repr(PowerSeries((1, 2))) == "PowerSeries(coeffs=(1, 2))"


def test_incidence_rows_are_built_once_per_matrix():
    m = incidence_matrix(Universe(4), 4)
    assert m.rows is m.rows
    assert [m.row_sum(i) for i in range(1, m.size + 1)] == [row.bit_count() for row in m.rows]
