"""Command-line adapter: thin over the library, stable exit codes."""

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from iterforge.cli import MAX_ORDER_CAP, MAX_WORD_ORDER, _catalan_usage, build_parser, main, read_spec_file
from iterforge.incidence import MODE_A, incidence_matrix
from iterforge.render import closure_text, matrix_csv, tableau_text
from iterforge.semantics import ClosureConfig, IdentitySpec, close

SRC = Path(__file__).resolve().parent.parent / "src"


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
    assert tuple(tuple(r) for r in record["rows"]) == universe.tableau_b(4)


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


def test_skein_order_takes_ascii_digits_only(capsys):
    # str.isdigit also accepts superscripts and other scripts' digits
    for target in ("²", "٣", "０"):
        code, out, err = run_cli(capsys, "skein", target)
        assert code == 3 and out == ""
        assert err == f"iterforge: {target!r}: invalid symbol {target!r} at position 0\n"


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
    for mode in ("A", "AB"):  # the leaf lies on no tableau line
        code, out, err = run_cli(capsys, "incidence", "--order", "0", "--mode", mode)
        assert (code, out, err) == (3, "", "iterforge: tableaux start at order 1\n")


def test_order_help_names_the_cap():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {
        name: action.help
        for name, parser in commands.choices.items()
        for action in parser._actions
        if "--order" in action.option_strings
    }
    assert sorted(helps) == ["classify", "closure", "enumerate", "incidence", "tableau", "verify"]
    for name, text in helps.items():
        assert f"cap {MAX_ORDER_CAP}" in text, name


def test_unwritable_output_path_is_domain_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x"
    code, out, err = run_cli(capsys, "enumerate", "--order", "3", "--out", str(target))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [f"iterforge: {target}: cannot write output: No such file or directory"]
    assert not target.exists()


def test_commands_reject_formats_they_do_not_render(capsys):
    for argv in (["skein", "VVxxx"], ["skein", "4"], ["classify", "3", "1", "4"]):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--format", "csv"])
        assert exit_info.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'csv'" in captured.err


def test_convolution_csv_quotes_the_coefficient_list(capsys):
    code, out, _ = run_cli(capsys, "catalan", "convolution", "2", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert 'relation1_coefficients,"[1, 1]"' in lines
    assert all(len(next(csv.reader([line]))) == 2 for line in lines)


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


@pytest.mark.parametrize(
    "params, cap",
    [
        (["classic"], 2000),
        (["ballot"], 350),
        (["general", "3"], 2000),
        (["mixed", "2,3"], 100),
        (["convolution", "2"], 300),
    ],
)
def test_sequence_size_above_cap_is_usage_error(capsys, params, cap):
    code, out, _ = run_cli(capsys, "catalan", *params, str(cap), "--format", "csv")
    assert code == 0 and out
    for size in (cap + 1, 10**8):
        code, out, err = run_cli(capsys, "catalan", *params, str(size))
        assert code == 2
        assert out == "" and err.startswith(f"iterforge: usage: catalan {params[0]} ") and f"<= {cap})" in err


@pytest.mark.parametrize(
    "params",
    [
        ["general", "21", "10"],
        ["general", "1000000", "2000"],
        ["mixed", "2,5", "10"],
        ["mixed", "2,2,3,3", "10"],
        ["convolution", "301", "10"],
    ],
)
def test_arity_and_lambda_above_cap_are_usage_errors(capsys, params):
    code, out, err = run_cli(capsys, "catalan", *params, "--format", "csv")
    assert code == 2
    assert out == "" and err == f"iterforge: {_catalan_usage(params[0])}\n"


def test_catalan_usage_lines_name_the_caps():
    assert _catalan_usage("general") == "usage: catalan general A N (A <= 20, N <= 2000)"
    assert _catalan_usage("mixed") == "usage: catalan mixed A1,A2,... D (at most 3 arities, each <= 4, D <= 100)"
    assert _catalan_usage("convolution") == "usage: catalan convolution LAMBDA N (LAMBDA <= 300, N <= 300)"


def test_every_catalan_variant_renders_at_its_caps(capsys):
    for params in (["classic", "2000"], ["ballot", "350"], ["general", "20", "2000"],
                   ["mixed", "4,4,4", "100"], ["convolution", "300", "300"]):
        for fmt in ("text", "json", "csv"):
            code, out, err = run_cli(capsys, "catalan", *params, "--format", fmt)
            assert code == 0 and out and err == "", (params, fmt)


def test_skein_word_order_is_capped(capsys):
    for word in ("V" * MAX_WORD_ORDER + "x" * (MAX_WORD_ORDER + 1), "Vx" * MAX_WORD_ORDER + "x"):
        code, out, _ = run_cli(capsys, "skein", word, "--format", "json")
        assert code == 0 and json.loads(out)["word"] == word
    code, out, err = run_cli(capsys, "skein", "V" * (MAX_WORD_ORDER + 1) + "x" * (MAX_WORD_ORDER + 2))
    assert code == 2
    assert out == "" and err == f"iterforge: usage: skein WORD (order of WORD <= {MAX_WORD_ORDER})\n"


def test_closed_stdout_ends_quietly(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), ITERFORGE_CACHE=str(tmp_path / "cache"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "iterforge.cli", "enumerate", "--order", "9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().split() == [b"1", b"V" * 9 + b"x" * 10]
    proc.stdout.close()  # about 100 kB are still to come, more than a pipe holds
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


def test_corrupt_cache_file_changes_no_output(capsys, tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("order 3\n2 4\n")
    commands = [["tableau", "--order", "5"], ["closure", str(spec_path), "--order", "5"], ["verify", "--order", "5"]]
    expected = []
    for number, argv in enumerate(commands):
        monkeypatch.setenv("ITERFORGE_CACHE", str(tmp_path / f"empty-{number}"))
        expected.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in expected] == [0, 0, 0]
    path = tmp_path / "empty-0" / "catalog-v1-05.txt"
    header, *words = path.read_text().splitlines()
    corruptions = {
        "swapped": [words[1], words[0], *words[2:]],
        "duplicated": [words[0], words[0], *words[2:]],
        "malformed": ["VxV", *words[1:]],
    }
    monkeypatch.setenv("ITERFORGE_CACHE", str(tmp_path / "empty-0"))
    for name, corrupt in corruptions.items():
        path.write_text("\n".join([header, *corrupt]) + "\n")
        assert [run_cli(capsys, *argv) for argv in commands] == expected, name


def test_missing_spec_file_is_domain_error(capsys, tmp_path):
    missing = tmp_path / "nonexistent.spec"
    code, out, err = run_cli(capsys, "closure", str(missing))
    assert code == 3
    assert out == ""
    assert err.splitlines() == [f"iterforge: {missing}: cannot read spec file: No such file or directory"]


def test_undecodable_spec_file_is_domain_error(capsys, tmp_path):
    spec_path = tmp_path / "binary.spec"
    spec_path.write_bytes(b"\xff\xfeorder 3\n1 2\n")
    code, out, err = run_cli(capsys, "closure", str(spec_path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"iterforge: {spec_path}: cannot read spec file: ")
    assert "can't decode byte 0xff" in err


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


# -- output goldens ------------------------------------------------------------

SPEC = "SPEC"  # replaced by the path of a file holding the spec 3:(2,4)


def golden_commands():
    """Every command in every format it renders, at small inputs."""
    commands = []

    def each_format(formats, *argv):
        for fmt in formats:
            commands.append((*argv, "--format", fmt))

    all_formats = ("text", "json", "csv")
    for n in range(5):
        each_format(all_formats, "enumerate", "--order", str(n))
    for n in range(1, 5):
        for mode in ("A", "B", "AB"):
            each_format(all_formats, "tableau", "--order", str(n), "--mode", mode)
        for mode in ("A", "AB"):
            each_format(all_formats, "incidence", "--order", str(n), "--mode", mode)
    each_format(all_formats, "closure", SPEC, "--order", "5", "--mode", "AB")
    each_format(all_formats, "closure", SPEC, "--order", "5", "--mode", "AB", "--unicity")
    for j in ("5", "4"):
        each_format(("text", "json"), "classify", "3", "1", j, "--order", "7")
    for target in ("VVxxx", "4"):
        each_format(("text", "json"), "skein", target)
    for params in (("classic", "6"), ("ballot", "5"), ("general", "3", "5"), ("mixed", "2,3", "6"),
                   ("convolution", "2", "10")):
        each_format(all_formats, "catalan", *params)
    each_format(all_formats, "verify", "--order", "4")
    return commands


def output_digest(argv, out: str) -> str:
    if argv[0] == "verify":
        out = re.sub(r',\n\s*"elapsed_ms": [^\n]*', "", out)
    return hashlib.sha256(out.encode()).hexdigest()


OUTPUT_GOLDENS = {
    "enumerate --order 0 --format text": "b990ad606117e24441230cd9e3e473e7c4043b04a2dbf69dacf05b513d946121",
    "enumerate --order 0 --format json": "367a0e1e1f30994cb8d5833a44b3e074bd98a9cc274047ec9c6b25919fc1a5c2",
    "enumerate --order 0 --format csv": "f21733fe84c59f42c9f922da76c89e389060319932254521a56b5e592e83007e",
    "enumerate --order 1 --format text": "645123dbf8d4886526fbb8539e40507352dcc70fbfae38b4c6468eb51c46d764",
    "enumerate --order 1 --format json": "dad8394acb4b30bfe4185458ea905792bc0c260fe23d18bb4bd7d826702cbbc8",
    "enumerate --order 1 --format csv": "5c588aeeeb5c62954fd12d653f797671b7601e43af2e7f99acf8270226c6bf43",
    "enumerate --order 2 --format text": "3dac80356744713f6666aaedb07de2f2278a072784e3993b615ba939b7d09770",
    "enumerate --order 2 --format json": "5339b52e9e2902becbb2f4345bc444719e86304b3e46ef4823bf0f1e145f99bf",
    "enumerate --order 2 --format csv": "22eeb221ca1f63d1802f8816897d1be492dee6d9e1bac59881ff3925fce8d997",
    "enumerate --order 3 --format text": "f59203d811d3f562a077cffdfbba3d2054689e34e2ff875e645a92f95fdbb663",
    "enumerate --order 3 --format json": "90b20b6184fe24db58b7af7aaf80606e99518e86a2aef66f41d5610a4c50ab0d",
    "enumerate --order 3 --format csv": "0608fd80ab78ff64b3c7b369510897e9e39944e116b9dd51dab6d6c38071eee0",
    "enumerate --order 4 --format text": "ced4edf318d04596ad2d143eb560d65378ea43530308df254fadd40cd0a6dc8a",
    "enumerate --order 4 --format json": "ab0843ae8add1c21f356378415d75bea808aa4e33c3d1a2e56992224f7a0d17c",
    "enumerate --order 4 --format csv": "d9ace4e590b03b971a7e9d85aaf09fb8455b09c955248f1f3430ba0e67c7892b",
    "tableau --order 1 --mode A --format text": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "tableau --order 1 --mode A --format json": "7ce69217a6591ebf4cb98d99f523d08314d881c94c91706f65dbb2207ca033b3",
    "tableau --order 1 --mode A --format csv": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "tableau --order 1 --mode B --format text": "ad0fadf63cc7cd779ce475e345bf4063565b63a3c2efef1eebc89790aaa6acba",
    "tableau --order 1 --mode B --format json": "84f128011a0f69821f2f92a5bbb6a78e1b668c6e5dae4dce646db1324dec820f",
    "tableau --order 1 --mode B --format csv": "ad0fadf63cc7cd779ce475e345bf4063565b63a3c2efef1eebc89790aaa6acba",
    "tableau --order 1 --mode AB --format text": "ccce065269620747ca153e9a430d44b175cdc1f7e0958741b567250a1d6b1d95",
    "tableau --order 1 --mode AB --format json": "b79830a289133a6933873255a454297a5801dff16d6c41cb518bbc1a35c15443",
    "tableau --order 1 --mode AB --format csv": "ccce065269620747ca153e9a430d44b175cdc1f7e0958741b567250a1d6b1d95",
    "incidence --order 1 --mode A --format text": "84c89f213622c8c2d365f29cf913e259b780e2cd9025ce2ea11b50830e34a161",
    "incidence --order 1 --mode A --format json": "664eff9af8e95d7162fa6662aa5108443ca1bf2380fc5b976cacdb054c47e7fa",
    "incidence --order 1 --mode A --format csv": "6aaf9c907d45e313eb55577f4bfe84e6e862c5900909d163f380621d1f88e052",
    "incidence --order 1 --mode AB --format text": "84c89f213622c8c2d365f29cf913e259b780e2cd9025ce2ea11b50830e34a161",
    "incidence --order 1 --mode AB --format json": "c4f98074804ed638da13bb09760e8d11ab2e2de43dd10ee986257f583dac4956",
    "incidence --order 1 --mode AB --format csv": "6aaf9c907d45e313eb55577f4bfe84e6e862c5900909d163f380621d1f88e052",
    "tableau --order 2 --mode A --format text": "a6e2b7a040683432de03a18fd8a1939a2fdf82585b364bfc874bdd4095c4cae1",
    "tableau --order 2 --mode A --format json": "d8821a65917ada4a44c13876077b97db61d6d410cb8beea661efbdf2e8c50cac",
    "tableau --order 2 --mode A --format csv": "a6e2b7a040683432de03a18fd8a1939a2fdf82585b364bfc874bdd4095c4cae1",
    "tableau --order 2 --mode B --format text": "a6e2b7a040683432de03a18fd8a1939a2fdf82585b364bfc874bdd4095c4cae1",
    "tableau --order 2 --mode B --format json": "5d9bd665be098e796143f3800440392e77e178ffdc39fcdc77e97f736e9b5dd7",
    "tableau --order 2 --mode B --format csv": "a6e2b7a040683432de03a18fd8a1939a2fdf82585b364bfc874bdd4095c4cae1",
    "tableau --order 2 --mode AB --format text": "06014e5ce594ff7deb2b477da939a5382c1ecfe8d41f72b32ede25db3817807a",
    "tableau --order 2 --mode AB --format json": "242583d84033ee38a450b329fce8fb6bb023171440159c98174f4de5a3ceac22",
    "tableau --order 2 --mode AB --format csv": "06014e5ce594ff7deb2b477da939a5382c1ecfe8d41f72b32ede25db3817807a",
    "incidence --order 2 --mode A --format text": "328a9aa476ea3cb4e570c8996b6961954bad0050cdf5232e52be11765fa9d398",
    "incidence --order 2 --mode A --format json": "063686f35e6877bcc3ab913124c57b60b2cf2142f747dbff22805006a2116a01",
    "incidence --order 2 --mode A --format csv": "8ccb2d3f5e1bed97292ec57707ecd30f79c7582334f37773c123eca29c614fc1",
    "incidence --order 2 --mode AB --format text": "328a9aa476ea3cb4e570c8996b6961954bad0050cdf5232e52be11765fa9d398",
    "incidence --order 2 --mode AB --format json": "7b1e6b40723971f9cf8d65c88a3dba6d5459ff5a6fd0d13da27f5ffba08342fe",
    "incidence --order 2 --mode AB --format csv": "8ccb2d3f5e1bed97292ec57707ecd30f79c7582334f37773c123eca29c614fc1",
    "tableau --order 3 --mode A --format text": "e62788c23c0095a331cda910e738762f4c0f279eb86fad4020332722ff805852",
    "tableau --order 3 --mode A --format json": "f7b01e5c7dc3f966d81932134adebb9ba761937703243fd0220099d699bdd36d",
    "tableau --order 3 --mode A --format csv": "b01fbe25208c19d8e9a029c7af7d949e52bf625aaaa67d6b6efe705f8ccb3ce6",
    "tableau --order 3 --mode B --format text": "7e2c2f5a54c3b9557b9bb30410097cabc570c21258658340f0d4646f6b932035",
    "tableau --order 3 --mode B --format json": "6f16b31065142d47fb3202bf5dbfe7acfec5ccb4db66ee7bbd47888a467ff39d",
    "tableau --order 3 --mode B --format csv": "c4929f889e38a2e36a8bc56991c486910e63b2713dee49efd5ffea1546771eaa",
    "tableau --order 3 --mode AB --format text": "8f636d428529a72d8061e350ed2d7e865978284cfbbebe8249d3bcdff8a36cc8",
    "tableau --order 3 --mode AB --format json": "eee1f61c4bca92da5a51c0d53a02bb3e39cb700556d4a186aabffab7642cea1b",
    "tableau --order 3 --mode AB --format csv": "31a01781722cc265c8905a47ce9b087c145811d6a69e3cc53816f0030b8b87d0",
    "incidence --order 3 --mode A --format text": "71a90076d6935e55c1b87f2aa4a2415cef0350252de18a0cd3f705a16703d3fd",
    "incidence --order 3 --mode A --format json": "9adcfa10d823873098cb3b65e16d99186ccf89201a2d90c8e401fdd473ddb479",
    "incidence --order 3 --mode A --format csv": "6e85951227fa4ad479cced68b2ac4dfee50c1b085cf52bf342d186f93f32795f",
    "incidence --order 3 --mode AB --format text": "257f50ad4a9faf00378ab59aa74ba638d5079b5df38564aa53dce84c0fdf0019",
    "incidence --order 3 --mode AB --format json": "9ee6779a3604e7352063a56788aa4e926f8b4f60b8e2e9098bbd3c0750e00542",
    "incidence --order 3 --mode AB --format csv": "f45f6704a3a0ba6d5ec9c880825c0c659c7f1fe675f32a07d912c81749b04beb",
    "tableau --order 4 --mode A --format text": "390c7dc4b13c208d706ae487b722d25c2a287121df5616abd89106555dad425c",
    "tableau --order 4 --mode A --format json": "9a95a2698efab37c863eee9e6d256a9b1b4906d86d0760a0d27c556610bb7763",
    "tableau --order 4 --mode A --format csv": "65594944fcd97e36d4a56b186fc58659e88addf863910aafd058a4ef639b8d80",
    "tableau --order 4 --mode B --format text": "6b2245378dd7957991b43aedc7e10e925668215f67bbdded43dea4cc8e175dd9",
    "tableau --order 4 --mode B --format json": "799d1a41a71e84852fe6c9188d5fce6cc2b5ee7e540e14f16bd3c49b28309bef",
    "tableau --order 4 --mode B --format csv": "6c3a6333f50d5bf6250fa5fa39903090fd47c58f3e94de2f4baebb3ea5609c5c",
    "tableau --order 4 --mode AB --format text": "950ec17def838f9775e4f845a3f134368b8c761ae04090370e3be47b4452a5e1",
    "tableau --order 4 --mode AB --format json": "abf18c555a3040a395555fae8684dba36cbcd1db24964e0632adbec5453ed1a1",
    "tableau --order 4 --mode AB --format csv": "cb13e7e5c04d266c4fc2b244096c96f0e5100a83d082d2afb1f83b04226a4b9b",
    "incidence --order 4 --mode A --format text": "c52ba5712c085b25946fd25405559f4d4719357d522c52ebfb67815b0934e2dc",
    "incidence --order 4 --mode A --format json": "8f41e16293935e041a53aacecdb68cbc4620f72277021ce7191d65b9e55e0637",
    "incidence --order 4 --mode A --format csv": "7aaa80510665ebb115b247485328dd6f8ac0c21ed2b27412f23cb6c139792614",
    "incidence --order 4 --mode AB --format text": "1cbfe13a6a90d85404330d1a981e1bf44521e9716a49224ff5263c144ec89c8a",
    "incidence --order 4 --mode AB --format json": "2ba294fa3fdf52c106722a42818e55d198b558cc379ed97953fda0474904ef8c",
    "incidence --order 4 --mode AB --format csv": "b2641cb82cab4c880325e3cd19cf1a083d0cfe88221615dced7c0108cc7f55e7",
    "closure SPEC --order 5 --mode AB --format text": "cc886e6a2e96eac72b6805ba6afe9d34e8101df6388f0db0e206c8d143b489ef",
    "closure SPEC --order 5 --mode AB --format json": "40b8558b306d45e8ab17581bf16fe42f4f32e1da2bc26a91b0e2eb2f7aa09bf4",
    "closure SPEC --order 5 --mode AB --format csv": "c938aba1f47787e913c22548df5b5b02bce122794b2c2ada166f5b8e06e8473f",
    "closure SPEC --order 5 --mode AB --unicity --format text": "eeedae7d5eb27d460a008f9bd5cc5b702987e8be7e7990f808f66ec004ae0c77",
    "closure SPEC --order 5 --mode AB --unicity --format json": "75af8e4e2d69fb972161f8c2ff972ab6f8dc59e0ac51e8681edad446a9cd83e9",
    "closure SPEC --order 5 --mode AB --unicity --format csv": "0292442691daa494211f36392c00be86ad938a420a6e76fe802acd599f307ab7",
    "classify 3 1 5 --order 7 --format text": "c4e1c63742c2a49c50268a202b66dcfbca19aca2d2ff7021759fd807da8178a1",
    "classify 3 1 5 --order 7 --format json": "afd195e4bde0c1526fb3111db8742c64efca5304fcbbb46aceab5b0a308b847b",
    "classify 3 1 4 --order 7 --format text": "f87be42aaadef1ff338e1cec52c1e586fbc24a4dcf92a8397bd829f1c347a8e9",
    "classify 3 1 4 --order 7 --format json": "a9a6c2f028b302e590d4a72767102a07573d653b559bbbffcfcd3e72be63dbe2",
    "skein VVxxx --format text": "117fa602bf025f64852dd8b212332d60e229490767bc92ca405267ce3084c6a8",
    "skein VVxxx --format json": "4e9805860b678fa9d0a9705dde1aaaee0769f143dfc36fdbc73c0e1c8048d977",
    "skein 4 --format text": "d29a1305264e155370e0a093f5607ed997b1a7e2d436aad376443af931601650",
    "skein 4 --format json": "3b964111fc279ee3ac43c0ded2f9caa1ab731fead72b8e38ebcc8c9836473b20",
    "catalan classic 6 --format text": "9fb52ac43ecc458a80d90770258e9c04c392d910feb2612a8f9d40c28532b656",
    "catalan classic 6 --format json": "4d41292831247c2a3c2c2c6e8e4fc941996ee22ff8cb64d3fb7585e3ccf52a7e",
    "catalan classic 6 --format csv": "e2abec2c2bdc5fc8468e789f7e4d82aa24ae6325fa51d3d9f1631fec0a5ce445",
    "catalan ballot 5 --format text": "8ca867b17b2ecd3f87be51bf91276b5d52028a81b14ba6dca28af431450f553d",
    "catalan ballot 5 --format json": "3b67e394845e82a33f83511f0892250ae915798f1a8e82c0da53a88b2ac59dec",
    "catalan ballot 5 --format csv": "0a6477bd6b96d108d93a881dfee415359974c413cebf817f824e3e9a390a1d64",
    "catalan general 3 5 --format text": "8a98eeadad8b3f7d939c0339b0bc2d89e737df6f47cbfdfd2b0377884360c026",
    "catalan general 3 5 --format json": "066ca0ef731daeff865d497770db159b796df9f856b46d3f12ecc1b3db1d1440",
    "catalan general 3 5 --format csv": "7ca3f850414bf789047aecea63513ca0eeb4b9cdcd928dc0116529f96e473e6a",
    "catalan mixed 2,3 6 --format text": "ee6f1b28d97c5eb0b1f97803aeaf0999707bc487414bc89fa5f180bec3697959",
    "catalan mixed 2,3 6 --format json": "0f6e3a6d64ad7dedf1e05359d48db449c2b548fa952fdda0cd6c8b18719ceb2e",
    "catalan mixed 2,3 6 --format csv": "ea7015e7ccaf650cce11c7e41872c1e5a9f5d9af2b4ebf517cac3e22ba16744a",
    "catalan convolution 2 10 --format text": "2d82abbdab985492a6c41581abe5dc30629019ccf69d1432b0adaafe8c988ec3",
    "catalan convolution 2 10 --format json": "e464fd88baac019e5ddadc6861a34fa5398cbcfbe65a1d8026a311076f82bde2",
    "catalan convolution 2 10 --format csv": "c817e2171e438907bbb515eef77e1b87d579c4c6cec229f6f5732f9302b817a5",
    "verify --order 4 --format text": "7bcc68f8e39235ac39d23e019b5d1c499ea8a412cb4064e284be1d33dd9ad14e",
    "verify --order 4 --format json": "4ac9ce3b193dec4556a49685bcbd539cfe5e0ceb5d9196280e0f799f0b5c5520",
    "verify --order 4 --format csv": "b9d6fa1c7e81ce4fdad154b72ce7eaa994ae03e3e97849d2ad75d14fe1d5c2da",
}


def test_output_goldens(capsys, tmp_path):
    spec_path = tmp_path / "spec.txt"
    spec_path.write_text("order 3\n2 4\n")
    changed = []
    for argv in golden_commands():
        key = " ".join(argv)
        argv = [str(spec_path) if arg == SPEC else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", key
        if output_digest(argv, out) != OUTPUT_GOLDENS[key]:
            changed.append(key)
    assert changed == []
    assert len(OUTPUT_GOLDENS) == len(golden_commands())
