"""Command-line adapter: thin over the library, stable exit codes."""

import json

import pytest

from iterforge.cli import main, read_spec_file
from iterforge.incidence import MODE_A, incidence_matrix, matrix_csv
from iterforge.semantics import ClosureConfig, IdentitySpec, close, closure_text
from iterforge.tableaux import tableau_text


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("ITERFORGE_CACHE", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "2")
    assert code == 0
    assert out.splitlines() == ["1 VVxxx", "2 VxVxx"]


def test_enumerate_order_zero(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "0")
    assert code == 0
    assert out.splitlines() == ["1 x"]


def test_enumerate_order5_row_eleven(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "5")
    lines = out.splitlines()
    assert len(lines) == 42
    assert lines[10].split() == ["11", "VVVxxVxVxxx"]


def test_tableau_matches_library_rendering(capsys, universe):
    code, out, _ = run_cli(capsys, "tableau", "--order", "4", "--mode", "A")
    assert code == 0
    assert out.rstrip("\n") == tableau_text(universe.tableau_a(4))


def test_tableau_single_cell(capsys):
    code, out, _ = run_cli(capsys, "tableau", "--order", "1", "--mode", "A")
    assert out.strip() == "1"


def test_tableau_combined(capsys):
    code, out, _ = run_cli(capsys, "tableau", "--order", "3", "--mode", "AB")
    assert out.splitlines() == ["1 2", "3 4", "2 5", "1 3", "4 5"]


def test_tableau_json_round_trip(capsys, universe):
    code, out, _ = run_cli(capsys, "tableau", "--order", "4", "--mode", "B", "--format", "json")
    record = json.loads(out)
    assert tuple(tuple(r) for r in record["rows"]) == universe.tableau_b(4).rows


def test_incidence_csv_matches_library(capsys, universe):
    code, out, _ = run_cli(capsys, "incidence", "--order", "4", "--mode", "A", "--format", "csv")
    assert code == 0
    assert out.rstrip("\n") == matrix_csv(incidence_matrix(universe, 4, MODE_A))
    assert out.rstrip("\n").splitlines()[-1] == "I_4,88"


def test_incidence_text_footer(capsys):
    code, out, _ = run_cli(capsys, "incidence", "--order", "3")
    assert out.splitlines()[-1] == "I_3 = 11"


def test_closure_command(capsys, tmp_path, universe):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("order 3\n2 4\n")
    code, out, _ = run_cli(capsys, "closure", str(spec_path), "--order", "4")
    assert code == 0
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(4, "AB", False), universe)
    assert out.rstrip("\n") == closure_text(state)


def test_closure_with_cancellation(capsys, tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("order 3\n1 5\n")
    code, out, _ = run_cli(
        capsys, "closure", str(spec_path), "--order", "5", "--unicity", "--format", "csv"
    )
    assert code == 0
    # deriving the associative law collapses every order to one class
    assert out.splitlines()[1:] == ["3,1,0", "4,1,0", "5,1,0"]


def test_closure_spec_file_parsing(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# comment\norder 3\n1 5\n2 4\n")
    spec = read_spec_file(str(path))
    assert spec == IdentitySpec.of(3, (1, 5), (2, 4))


def test_classify_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "3", "1", "4", "--order", "7")
    assert code == 0
    assert out.strip() == "essential-up-to 7"
    code, out, _ = run_cli(capsys, "classify", "3", "1", "5", "--order", "7", "--format", "json")
    record = json.loads(out)
    assert record["verdict"] == "semantically-reducible"
    assert [5, 8, 11] in record["witness"]


def test_skein_word(capsys):
    code, out, _ = run_cli(capsys, "skein", "VVxxx")
    assert code == 0
    assert out.strip() == "a^2 + a*b + b"


def test_skein_order_listing(capsys):
    code, out, _ = run_cli(capsys, "skein", "4")
    lines = out.splitlines()
    assert len(lines) == 15  # 14 labels + one collision line
    assert lines[-1] == "collision: labels 4 7"


def test_catalan_variants(capsys):
    code, out, _ = run_cli(capsys, "catalan", "classic", "4")
    assert out.split() == ["1", "1", "2", "5", "14"]
    code, out, _ = run_cli(capsys, "catalan", "ballot", "4")
    assert out.splitlines()[-1] == "5 5 3 1"
    code, out, _ = run_cli(capsys, "catalan", "general", "3", "3", "--format", "csv")
    assert out.splitlines()[-1] == "3,12"
    code, out, _ = run_cli(capsys, "catalan", "convolution", "2", "20", "--format", "json")
    assert json.loads(out)["relation2_ok"] is True


def test_output_file(capsys, tmp_path):
    target = tmp_path / "grid.txt"
    code, out, _ = run_cli(capsys, "tableau", "--order", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().rstrip("\n").splitlines()[0] == "1 2 3 4 5"


def test_exit_codes(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["tableau", "--order", "12"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])
    code, _, err = run_cli(capsys, "skein", "VVxx")
    assert code == 3
    assert "iterforge:" in err
    code, _, err = run_cli(capsys, "catalan", "general", "1", "5")
    assert code == 3
    code, _, err = run_cli(capsys, "catalan", "general", "two", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "catalan", "general", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "skein", "12")
    assert code == 2


def test_verify_small_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "4", "--format", "csv")
    assert code == 0  # bounded run: nothing fails, deeper checks are skipped
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert rows["classification-verdicts"] == "skip"
    assert rows["tableau-goldens"] == "skip"
    assert rows["catalan-ballot-tables"] == "pass"


def test_negative_sequence_length_is_usage_error(capsys):
    for variant, value in (("classic", "-3"), ("ballot", "-2")):
        code, out, err = run_cli(capsys, "catalan", variant, value)
        assert code == 2
        assert out == "" and f"usage: catalan {variant} N" in err


def test_missing_spec_file_is_domain_error(capsys, tmp_path):
    missing = tmp_path / "nonexistent.spec"
    code, out, err = run_cli(capsys, "closure", str(missing))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [f"iterforge: {missing}: cannot read spec file: No such file or directory"]


def test_non_integer_spec_entry_is_usage_error(capsys, tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("order 3\n1 a\n")
    code, out, err = run_cli(capsys, "closure", str(spec_path))
    assert code == 2
    assert err.strip() == f"iterforge: {spec_path}:2: expected an integer, got 'a'"


def test_classify_reflexive_pair_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "classify", "3", "1", "1")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["iterforge: reflexive pair (1, 1)"]


def test_verify_json_carries_per_check_cost(capsys):
    code, out, _ = run_cli(capsys, "verify", "--order", "5", "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks
    for check in checks:
        assert isinstance(check["elapsed_ms"], float) and check["elapsed_ms"] >= 0, check["id"]
