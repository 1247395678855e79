"""End-to-end command line checks: output formats, exit codes,
determinism, and the guard/env-var plumbing."""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gelfand.characters
import gelfand.cli
from gelfand.characters import character_table
from gelfand.cli import main
from gelfand.cyclotomic import Cyclotomic


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_group_info_tsv(capsys):
    code, out, _ = run(capsys, ["group", "info", "--r", "1", "--p", "1", "--q", "1", "--n", "3"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [["order", "6"], ["classes", "3"], ["irreducibles", "3"]]


def test_group_info_json(capsys):
    code, out, _ = run(
        capsys,
        ["group", "info", "--r", "2", "--p", "2", "--q", "1", "--n", "4", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["order"] == 192
    assert payload["classes"] == payload["irreducibles"] == 13
    assert payload["group"] == {"r": 2, "p": 2, "q": 1, "n": 4}


def test_group_info_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, ["group", "info", "--r", "4", "--p", "3", "--q", "1", "--n", "2"])
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, ["group", "info", "--r", "2"])
    assert code == 2
    code, _, _ = run(capsys, ["no-such-command"])
    assert code == 2


def test_rs_apply_golden(capsys):
    code, out, _ = run(
        capsys, ["rs", "apply", "[3^0,4^1,6^1,2^0,5^2,1^2]", "--r", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["p"] == [[[2], [3]], [[4, 6]], [[1], [5]]]
    assert payload["q"] == [[[1], [4]], [[2, 3]], [[5], [6]]]
    assert payload["shape"] == "((1,1),(2),(1,1))"


def test_rs_apply_malformed_window(capsys):
    code, _, err = run(capsys, ["rs", "apply", "[1^0,1^0]", "--r", "2"])
    assert code == 2
    assert "error" in err


def test_classes_list_tsv(capsys):
    code, out, _ = run(capsys, ["classes", "list", "--r", "2", "--p", "1", "--n", "2"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert sum(int(size) for _, size, _ in rows) == 8
    assert ["((1,1),())", "1", "[1^0,2^0]"] in rows


def test_classes_list_json_round_trip(capsys):
    code, out, _ = run(
        capsys, ["classes", "list", "--r", "2", "--p", "2", "--n", "4", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    halves = [c for c in payload["classes"] if "]^" in c["label"] or c["label"].endswith("^0") or c["label"].endswith("^1")]
    assert len(halves) == 4
    assert sum(c["size"] for c in payload["classes"]) == 192


def test_involutions_list(capsys):
    code, out, _ = run(
        capsys, ["involutions", "list", "--r", "2", "--p", "1", "--q", "1", "--n", "1"]
    )
    assert code == 0
    rows = sorted(line.split("\t") for line in out.strip().splitlines())
    assert [w for w, _ in rows] == ["[1^0]", "[1^1]"]


def test_involutions_list_json_dimension(capsys):
    code, out, _ = run(
        capsys,
        ["involutions", "list", "--r", "2", "--p", "1", "--q", "2", "--n", "4", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == sum(c["size"] for c in payload["classes"])
    # involutions of B4/+-I: 38 symmetric cosets, 6 antisymmetric
    assert payload["dimension"] == 44
    asym = [c for c in payload["classes"] if c["type"].startswith("asym")]
    assert sum(c["size"] for c in asym) == 6


def test_involutions_types(capsys):
    code, out, _ = run(
        capsys,
        ["involutions", "types", "--r", "2", "--p", "1", "--q", "2", "--n", "6"],
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    by_type = {row[0]: row for row in rows}
    target = by_type["sym[1,1;1,1]"]
    assert target[1] == "90"
    shapes = set(target[2].split())
    assert shapes == {
        "[((2,1),(2,1))]",
        "[((2,1),(1,1,1))]",
        "[((1,1,1),(1,1,1))]",
    }


def test_chartable_tsv_shape(capsys):
    code, out, _ = run(
        capsys, ["chartable", "--r", "2", "--p", "1", "--q", "1", "--n", "2"]
    )
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0][0] == "class"
    assert rows[1][0] == "size"
    assert len(rows) == 2 + 5
    assert all(len(row) == 6 for row in rows)


def test_chartable_json(capsys):
    code, out, _ = run(
        capsys,
        ["chartable", "--r", "2", "--p", "2", "--q", "1", "--n", "2", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert sum(row["degree"] ** 2 for row in payload["rows"]) == 4
    for row in payload["rows"]:
        assert len(row["values"]) == len(payload["classes"])


def test_chartable_renders_each_distinct_value_once(capsys, monkeypatch):
    tables = []

    def recorded_table(*args):
        tables.append(character_table(*args))
        return tables[-1]

    rendered = []
    plain_str = Cyclotomic.__str__

    def counted_str(value):
        rendered.append(id(value))
        return plain_str(value)

    monkeypatch.setattr(gelfand.characters, "character_table", recorded_table)
    monkeypatch.setattr(Cyclotomic, "__str__", counted_str)
    code, out, _ = run(
        capsys,
        ["chartable", "--r", "4", "--p", "2", "--q", "1", "--n", "4", "--json"],
    )
    assert code == 0
    [table] = tables
    distinct = {id(value) for _, row in table for value in row.values}
    assert len(rendered) == len(distinct)
    assert set(rendered) == distinct
    payload = json.loads(out)
    assert [row["values"] for row in payload["rows"]] == [
        [plain_str(value) for value in row.values] for _, row in table
    ]


def test_model_decompose_single_class(capsys):
    code, out, _ = run(
        capsys,
        [
            "model", "decompose",
            "--r", "2", "--p", "1", "--q", "2", "--n", "6",
            "--class", "sym[1,1;1,1]",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["acting_group"] == {"r": 2, "p": 2, "q": 1, "n": 6}
    assert payload["basis_group"] == {"r": 2, "p": 1, "q": 2, "n": 6}
    (entry,) = payload["classes"]
    assert entry["class_size"] == 90
    assert entry["pass"] is True
    assert entry["predicted"] == [
        "[((2,1),(2,1))]^0",
        "[((2,1),(1,1,1))]",
        "[((1,1,1),(1,1,1))]^0",
    ]
    assert [row["label"] for row in entry["computed"]] == entry["predicted"]


def test_model_decompose_full_small(capsys):
    code, out, _ = run(
        capsys, ["model", "decompose", "--r", "2", "--p", "2", "--q", "1", "--n", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert all(entry["pass"] for entry in payload["classes"])


def test_model_decompose_unknown_class(capsys):
    code, _, err = run(
        capsys,
        [
            "model", "decompose",
            "--r", "2", "--p", "2", "--q", "1", "--n", "4",
            "--class", "sym[3,1;0,0]",  # odd color sum: not in the dual
        ],
    )
    assert code == 2
    assert "error" in err


def test_model_gelfand_check(capsys):
    code, out, _ = run(
        capsys, ["model", "gelfand-check", "--r", "2", "--p", "2", "--q", "1", "--n", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["acting_group"] == {"r": 2, "p": 1, "q": 2, "n": 4}
    assert all(row["multiplicity"] == 1 for row in payload["irreducibles"])
    assert sum(row["degree"] for row in payload["irreducibles"]) == 44


def test_guard_flag(capsys):
    code, _, err = run(
        capsys,
        [
            "involutions", "list",
            "--r", "2", "--p", "1", "--q", "1", "--n", "4",
            "--max-group-order", "10",
        ],
    )
    assert code == 2
    assert "resource limit" in err


def test_guard_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("MODEL_MAX_ORDER", "10")
    code, _, err = run(
        capsys, ["involutions", "list", "--r", "2", "--p", "1", "--q", "1", "--n", "4"]
    )
    assert code == 2
    assert "resource limit" in err
    # explicit flag wins over the environment
    monkeypatch.setenv("MODEL_MAX_ORDER", "10")
    code, out, _ = run(
        capsys,
        [
            "involutions", "list",
            "--r", "2", "--p", "1", "--q", "1", "--n", "4",
            "--max-group-order", "1000000",
        ],
    )
    assert code == 0 and out
    monkeypatch.setenv("MODEL_MAX_ORDER", "not-a-number")
    code, _, err = run(
        capsys, ["involutions", "list", "--r", "2", "--p", "1", "--q", "1", "--n", "4"]
    )
    assert code == 2


@pytest.mark.parametrize("value", ["0", "-5"])
def test_guard_flag_refuses_non_positive(capsys, value):
    code, out, err = run(
        capsys,
        [
            "model", "decompose",
            "--r", "2", "--p", "1", "--q", "1", "--n", "3",
            "--max-group-order", value,
        ],
    )
    assert code == 2 and not out
    assert "error: --max-group-order must be a positive integer" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_guard_env_variable_refuses_non_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("MODEL_MAX_ORDER", value)
    code, out, err = run(
        capsys, ["involutions", "list", "--r", "2", "--p", "1", "--q", "1", "--n", "3"]
    )
    assert code == 2 and not out
    assert "error: MODEL_MAX_ORDER must be a positive integer" in err


def test_output_is_deterministic(capsys):
    argv = ["involutions", "types", "--r", "2", "--p", "2", "--q", "1", "--n", "4", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_gcd_guard_exit_code(capsys):
    code, _, err = run(
        capsys, ["chartable", "--r", "3", "--p", "3", "--q", "1", "--n", "3"]
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "list", "--r", "0", "--p", "1", "--n", "2"],
        ["classes", "list", "--r", "-2", "--p", "1", "--n", "2"],
        ["classes", "list", "--r", "2", "--p", "0", "--n", "2"],
        ["classes", "list", "--r", "2", "--p", "1", "--n", "0"],
        ["rs", "apply", "[1^0]", "--r", "0"],
    ],
)
def test_invalid_parameters_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["model", "decompose", "--r", "4", "--p", "3", "--q", "1", "--n", "4"],
            "p must divide r (got r=4, p=3)",
        ),
        (
            ["model", "gelfand-check", "--r", "4", "--p", "1", "--q", "3", "--n", "4"],
            "q must divide r (got r=4, q=3)",
        ),
        (
            ["involutions", "list", "--r", "4", "--p", "3", "--q", "1", "--n", "4"],
            "p must divide r (got r=4, p=3)",
        ),
    ],
    ids=["model-decompose", "model-gelfand-check", "involutions-list"],
)
def test_errors_name_the_flag_typed(capsys, argv, message):
    # the flags name the basis group, which is checked before the swap to
    # the acting group, so the message names the flag that is wrong
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("command", ["decompose", "gelfand-check"])
def test_unsupported_model_names_the_flag_typed(capsys, command):
    # the acting group's GCD(p,n) is the basis group's GCD(q,n)
    argv = ["model", command, "--r", "3", "--p", "1", "--q", "3", "--n", "3"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: only groups with GCD(q,n) in {1,2} are supported, got 3\n"


@pytest.mark.parametrize("text", ["sym[a;b]", "sym[1,x;0,0]", "asym[q]"])
def test_malformed_class_names_the_text(capsys, text):
    # an entry that is not an integer is malformed type text, reported as
    # such and not as int()'s message
    argv = ["model", "decompose", "--r", "2", "--p", "1", "--q", "2", "--n", "6"]
    code, out, err = run(capsys, argv + ["--class", text])
    assert code == 2
    assert out == ""
    assert err == "error: unrecognized type text: %r\n" % text


def test_failed_internal_check_exits_3(capsys, monkeypatch):
    import gelfand.classes

    monkeypatch.setattr(gelfand.classes, "class_of", lambda g, p=1: None)
    code, out, err = run(
        capsys, ["classes", "list", "--r", "2", "--p", "1", "--n", "2", "--json"]
    )
    assert code == 3
    assert out == ""
    assert err.startswith("inconsistency:")


# stdout sha256 of small invocations, pinned so that a refactor which
# changes any output byte fails here
PINNED_OUTPUT = [
    (
        ["model", "decompose", "--r", "2", "--p", "1", "--q", "2", "--n", "4"],
        "7e25de71c48fa185375d5a245561a5e8970a0efa701598e7f467016da66afbe8",
    ),
    (
        ["model", "gelfand-check", "--r", "2", "--p", "2", "--q", "1", "--n", "4"],
        "4400618814b003483c64cb3d2e0c89b5911c5a7272ad687280adeeb6997d451c",
    ),
    (
        ["chartable", "--json", "--r", "3", "--p", "1", "--q", "1", "--n", "3"],
        "823c9c70b5603299f24f2992fd28d93a3e702a1350e77c5766bfb166dc50f323",
    ),
    (
        ["chartable", "--json", "--r", "4", "--p", "2", "--q", "1", "--n", "2"],
        "e7be791b946d422c37fa58cfcf2d4ac4e92a1d8f703a5e627dd78ebea12b3516",
    ),
    (
        ["involutions", "types", "--json", "--r", "2", "--p", "2", "--q", "1", "--n", "4"],
        "d020fe62a3c42cd0be80c693bf101d8c5f9bc917b6206ef724a59b2da3ad180b",
    ),
    (
        # G(4,2,4) has split classes
        ["classes", "list", "--json", "--r", "4", "--p", "2", "--n", "4"],
        "6b4143fb84124aee53c28f71da1713dd7100d31587b1e6588ddbe98eae0fa71f",
    ),
    (
        # split rows over classes with several cycles
        ["chartable", "--json", "--r", "4", "--p", "2", "--q", "1", "--n", "4"],
        "7b8039d04d73663b66cc1ba3b3508600fdde79b4c8716fcd7e26b8100ef76252",
    ),
    (
        # values in Q(zeta_6)
        ["chartable", "--json", "--r", "6", "--p", "1", "--q", "1", "--n", "3"],
        "13e329ca8c441ff1ad999b36d7a3d742247f714b965fd1c6d93aa3fdbfb55f66",
    ),
    (
        # a q = 2 quotient with split rows
        ["chartable", "--json", "--r", "4", "--p", "2", "--q", "2", "--n", "4"],
        "3938ebed053cfc4f47a082d516814ceaba096a2d21dc24d1d9c556a81eba8303",
    ),
    (
        # an index-2 subgroup in Q(zeta_6), odd n: no split rows
        ["chartable", "--json", "--r", "6", "--p", "2", "--q", "1", "--n", "3"],
        "f1cbd7f49716771616b067d567ee37f4e5fb62291fbca7463089ff3621fb0dcd",
    ),
    (
        # split rows in Q(zeta_6)
        ["chartable", "--json", "--r", "6", "--p", "2", "--q", "1", "--n", "2"],
        "97f8d42d0d01d1e9348fb63c66978725182c4d3a011448b42b3f3fd982cf997d",
    ),
    (
        ["group", "info", "--json", "--r", "4", "--p", "2", "--q", "2", "--n", "4"],
        "8a06f736e8611cf6424fad189a59d55c321424a7b287c254096c13df84bc1211",
    ),
    (
        ["rs", "apply", "[3^0,4^1,6^1,2^0,5^2,1^2]", "--r", "3"],
        "8cc4a08cefa94185f2726ce3eab79e88c41cc4f7c265031391f5e3ec910283e6",
    ),
    (
        ["involutions", "list", "--json", "--r", "2", "--p", "2", "--q", "1", "--n", "4"],
        "d275c63256f966eaeed92be3bdbbe065ca2dda905289c003bffb6df3130ce936",
    ),
    (
        # one class type of a q = 2 quotient
        ["model", "decompose", "--r", "2", "--p", "1", "--q", "2", "--n", "6", "--class", "sym[1,1;1,1]"],
        "ac57b4ead394d211560f642f4aa4f41afa9766c5602ca5b9da2e7dcaa48d7104",
    ),
]

# the TSV renderings; kept apart from PINNED_OUTPUT, whose ids drop flags
PINNED_TSV_OUTPUT = [
    (
        ["group", "info", "--r", "4", "--p", "2", "--q", "2", "--n", "4"],
        "7330135ee2a34cd5f6133bae7003ffcd8b8047dc278cf54cbbc96a282d1488ce",
    ),
    (
        # G(4,2,4) has split classes
        ["classes", "list", "--r", "4", "--p", "2", "--n", "4"],
        "a5d1be41d44fcd25e17e42bc83a1ce0b7261167346d52bb76a9a6525efe71f1f",
    ),
    (
        ["involutions", "types", "--r", "2", "--p", "1", "--q", "2", "--n", "6"],
        "42cc833fb022a17c9e4e1ff63d56391dfbd8393bf65e1617eca36afcfe185d3b",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    PINNED_OUTPUT,
    ids=["-".join(a for a in argv if not a.startswith("--")) for argv, _ in PINNED_OUTPUT],
)
def test_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the benchmark's goldens: each key is an argv joined by spaces
GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
)


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_benchmark_goldens_replay(capsys, monkeypatch, key):
    # the benchmark runs its children with no MODEL_MAX_ORDER
    monkeypatch.delenv("MODEL_MAX_ORDER", raising=False)
    code, out, _ = run(capsys, key.split())
    assert code == GOLDENS[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[key]["sha256"]


@pytest.mark.parametrize(
    "argv,digest",
    PINNED_TSV_OUTPUT,
    ids=["-".join(a for a in argv if not a.startswith("--")) for argv, _ in PINNED_TSV_OUTPUT],
)
def test_tsv_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_chartable_text_bytes_pinned(capsys):
    # the text rendering of split rows; kept apart from PINNED_OUTPUT, whose
    # ids drop flags and would collide with the --json case of the same group
    code, out, _ = run(capsys, ["chartable", "--r", "4", "--p", "2", "--q", "1", "--n", "4"])
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "96d59d539be0fb018324d2b59e12c143c6b72725e0f02b95960c34a33acf9caa"
    )


# stdout sha256 of --help at 80 columns; the parser is built without the
# library modules, so its text (the guard default included) is pinned here
HELP_OUTPUT = [
    ([], "a449c010b286b71ffc2b5280cb943cf8597f217e46120a883ed247065b20417b"),
    (["group"], "831cf35ad9efd27f1f5386b185f49586ef92b75f80f877dce460ca380a659d50"),
    (
        ["group", "info"],
        "1332300cac6425ca815e64ebad86b7021081ea279db6b52fa3d3c5ba31a25ffd",
    ),
    (
        ["involutions"],
        "9ac2c50208bea991b39d129147bab89910eead584d2db54519ac7d6843b28aa3",
    ),
    (["rs"], "d3e4e3aa64b125757d67d6aaa8a9f87478560266b6be9ad4af987114b3604537"),
    (["classes"], "1fea572c4ba6559ea5b09cf94fa8a0a34bcac7319a76e2b56b8178db216aad57"),
    (
        ["classes", "list"],
        "0d2df8cd8d889af7ba821cbff8a5771e1cccf821fa588da482fa0abc0c46e891",
    ),
    (["model"], "f49ce9798bba9af4aec90ff90a5b8dbbb955309360908c1211822d9c4a1d1592"),
    (
        ["model", "decompose"],
        "67e32471530f652429590f6477ab34f0e3c2901830705f21342d67847df4530e",
    ),
    (
        ["model", "gelfand-check"],
        "3695b295436f0dd0a91c2a99ece8fd4ed4408b39da788fca3a64f4945db42002",
    ),
    (
        ["involutions", "list"],
        "3ee1c6949824873b7f6dd9d989a21f8eed425c92a8e8877f43651bcbf9e10cda",
    ),
    (
        ["involutions", "types"],
        "49da017efdcc6bfaf6f2756e57aa096d14b5ff5ae92d5a151e2ef1fd4170f1f4",
    ),
    (["chartable"], "87d8e813c8dc349ecf7045e372300d327e91e96a96ddf0c04cccd23bf7db629c"),
    (["rs", "apply"], "26c87f4fc4ac455395f3881cdbc7a0259c32845a6453adcb2108d3a649447126"),
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse lays out help differently across Python versions; "
    "the digests were recorded with Python 3.11",
)
@pytest.mark.parametrize(
    "argv,digest",
    HELP_OUTPUT,
    ids=["-".join(argv) or "gelfand" for argv, _ in HELP_OUTPUT],
)
def test_help_bytes_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, argv + ["--help"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def help_pages(parser, words=()):
    """The words of every parser under parser, parser itself first."""
    yield words
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from help_pages(sub, words + (name,))


def test_every_help_page_is_pinned():
    pages = list(help_pages(gelfand.cli._build_parser()))
    assert len(pages) == 14
    assert set(pages) == {tuple(argv) for argv, _ in HELP_OUTPUT}


class WriteThroughCounter(io.TextIOBase):
    """A text stream that keeps every write apart, as stdout does under
    PYTHONUNBUFFERED=1, where each write is one system call."""

    def __init__(self) -> None:
        self.writes = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["chartable", "--json", "--r", "4", "--p", "1", "--q", "1", "--n", "5"],
            "39e61e6d1d93fb442d8396d69d76ff2e4f7169c562ba05ab7896da3e8da60690",
        ),
        (
            ["chartable", "--r", "4", "--p", "2", "--q", "1", "--n", "4"],
            "96d59d539be0fb018324d2b59e12c143c6b72725e0f02b95960c34a33acf9caa",
        ),
        (
            ["involutions", "list", "--r", "2", "--p", "2", "--q", "1", "--n", "6"],
            "63d0c296b97ebcdf0bedd838eeeb8363171c8caf30c82092f59185c8fc7de018",
        ),
    ],
    ids=["chartable-json", "chartable-tsv", "involutions-list"],
)
def test_stdout_is_written_in_bounded_blocks(monkeypatch, argv, digest):
    stream = WriteThroughCounter()
    monkeypatch.setattr("sys.stdout", stream)
    assert main(argv) == 0
    data = "".join(stream.writes).encode()
    assert hashlib.sha256(data).hexdigest() == digest
    block = gelfand.cli.BLOCK
    assert len(stream.writes) <= math.ceil(len(data) / block) + 2
    assert max(len(text.encode()) for text in stream.writes) <= 2 * block


SRC = Path(gelfand.cli.__file__).resolve().parent.parent


def spawn_cli(argv, stdout, unbuffered: bool) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MODEL_MAX_ORDER", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "gelfand.cli", *argv],
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
    )


# one small invocation of every subcommand that writes stdout
WRITING_COMMANDS = [
    ["group", "info", "--r", "2", "--p", "1", "--q", "1", "--n", "3"],
    ["involutions", "list", "--r", "2", "--p", "1", "--q", "1", "--n", "3"],
    ["involutions", "types", "--r", "2", "--p", "1", "--q", "1", "--n", "3"],
    ["rs", "apply", "[2^0,1^1]", "--r", "2"],
    ["classes", "list", "--r", "2", "--p", "1", "--n", "3"],
    ["chartable", "--json", "--r", "4", "--p", "1", "--q", "1", "--n", "5"],
    ["model", "decompose", "--r", "2", "--p", "1", "--q", "2", "--n", "4"],
    ["model", "gelfand-check", "--r", "2", "--p", "1", "--q", "1", "--n", "4"],
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    WRITING_COMMANDS,
    ids=["-".join(word for word in argv[:2] if word[0] != "-") for argv in WRITING_COMMANDS],
)
def test_closed_stdout_exits_141(argv, unbuffered):
    # the reader is gone before the child writes: the child ends as a shell
    # reports a writer stopped by SIGPIPE, with nothing on stderr, whether
    # its stdout buffers or writes through
    read, write = os.pipe()
    os.close(read)
    try:
        proc = spawn_cli(argv, write, unbuffered)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["--help"], False),
        (["model", "decompose", "--help"], False),
        (["--help"], True),
        (["model", "decompose", "--help"], True),
    ],
    ids=["gelfand", "model-decompose", "gelfand-unbuffered", "model-decompose-unbuffered"],
)
def test_help_into_closed_stdout_exits_141(argv, unbuffered):
    # the help goes out through the block writer, whose write (unbuffered)
    # or flush (buffered) meets the reader that is gone
    read, write = os.pipe()
    os.close(read)
    try:
        proc = spawn_cli(argv, write, unbuffered=unbuffered)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


def test_reader_closing_mid_document_exits_141():
    # head -c 100: the reader takes the start of a 1 MB document and closes
    argv = ["chartable", "--json", "--r", "4", "--p", "1", "--q", "1", "--n", "5"]
    proc = spawn_cli(argv, subprocess.PIPE, unbuffered=True)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert head.startswith(b'{\n  "schema": 1,\n  "group": {')


class ClosedPipe(io.TextIOBase):
    """A caller's stream whose reader has gone."""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stream_of_an_in_process_caller(capsys, monkeypatch):
    # main reports the closed stream by its status and leaves the caller's
    # stream in place and open
    stream = ClosedPipe()
    monkeypatch.setattr("sys.stdout", stream)
    assert main(["group", "info", "--r", "2", "--p", "1", "--q", "1", "--n", "3"]) == 141
    assert sys.stdout is stream and not stream.closed
    assert capsys.readouterr().err == ""


# strings that json escapes: quotes, backslashes, control characters,
# non-ASCII characters and a lone surrogate, besides any other text
JSON_TEXT = st.text(
    st.sampled_from('a"\\/\x00\x1f\n\t\x7f\u00e9\u2028\u4e2d\U0001f600\ud800')
) | st.text()
JSON_SCALARS = st.none() | st.booleans() | st.integers() | JSON_TEXT
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children)
    | st.lists(JSON_TEXT)
    | st.dictionaries(JSON_TEXT, children),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_DOCUMENTS)
@example({})
@example([])
@example({"": [], "k": {}, "\u00e9\n": ["\x00", "\u4e2d"]})
@example(["a", "\u2028", ""])
@example([True, False, None, 0, -1, 10**30, "x", [], {}])
@example({"schema": 1, "rows": [{"label": "[((1),(),())]", "values": ["1", "-z"]}]})
def test_json_writer_matches_json_dumps(document):
    text = "".join(gelfand.cli._json_chunks(document))
    assert text == json.dumps(document, indent=2)
