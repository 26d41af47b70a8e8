"""End-to-end CLI behavior: exit codes, byte determinism, file formats."""

import csv
import io
import json
from fractions import Fraction

import pytest

from test_acceptance import sweep_params

from mmsalloc import cli
from mmsalloc.errors import InvariantViolation
from mmsalloc.jsonio import dump_json, instance_to_json, load_instance
from mmsalloc.model import Allocation
from mmsalloc.solver import SolveStats


def run_cli(argv):
    return cli.main(argv)


def gen_file(tmp_path, name, n, m, seed, dist="uniform:1:100"):
    path = tmp_path / name
    rc = run_cli(
        [
            "gen",
            "--n",
            str(n),
            "--m",
            str(m),
            "--dist",
            dist,
            "--seed",
            str(seed),
            "--output",
            str(path),
        ]
    )
    assert rc == 0
    return path


def test_gen_is_byte_deterministic(tmp_path):
    a = gen_file(tmp_path, "a.json", 3, 8, 42)
    b = gen_file(tmp_path, "b.json", 3, 8, 42)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["agents"] == 3 and doc["items"] == 8
    assert len(doc["valuations"]) == 3
    assert all(len(row) == 8 for row in doc["valuations"])


def test_gen_round_trips_through_loader(tmp_path):
    path = gen_file(tmp_path, "inst.json", 4, 9, 5, dist="correlated:0:50:10")
    text = path.read_text()
    inst = load_instance(text)
    assert dump_json(instance_to_json(inst)) == text


def test_mms_prints_value_then_partition(capsys):
    assert run_cli(["mms", "--values", "4,3,2,1", "--k", "2"]) == 0
    assert capsys.readouterr().out == "5\n{4,1},{3,2}\n"
    # the largest k the oracle takes; 25 is refused (oracle_cap_cases)
    assert run_cli(["mms", "--values", "4,3", "--k", "24"]) == 0
    assert capsys.readouterr().out == "0\n{4},{3}" + ",{}" * 22 + "\n"


def test_mms_accepts_fractions(capsys):
    assert run_cli(["mms", "--values", "1/2,1/2,1/3", "--k", "2"]) == 0
    assert capsys.readouterr().out == "1/2\n{1/2,1/3},{1/2}\n"


@pytest.mark.parametrize("algorithm", ["poly34", "exist34", "exist34plus"])
def test_solve_with_verification_passes(tmp_path, algorithm):
    inst = gen_file(tmp_path, "inst.json", 3, 9, 11)
    out = tmp_path / "alloc.json"
    rc = run_cli(
        [
            "solve",
            "--input",
            str(inst),
            "--algorithm",
            algorithm,
            "--verify",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["verify"]["overall"] is True
    assert len(doc["bundles"]) == 3
    assert doc["stats"]["update_loop_iterations"] >= 0


def test_solve_is_byte_deterministic(tmp_path):
    inst = gen_file(tmp_path, "inst.json", 4, 11, 3)
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        rc = run_cli(["solve", "--input", str(inst), "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_solve_reads_stdin_writes_stdout(tmp_path, capsys, monkeypatch):
    inst = gen_file(tmp_path, "inst.json", 2, 6, 9)
    monkeypatch.setattr("sys.stdin", io.StringIO(inst.read_text()))
    rc = run_cli(["solve", "--input", "-"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["bundles"]) == 2


def test_verify_subcommand_accepts_good_allocation(tmp_path, capsys):
    inst = gen_file(tmp_path, "inst.json", 3, 8, 21)
    alloc = tmp_path / "alloc.json"
    assert (
        run_cli(["solve", "--input", str(inst), "--output", str(alloc)]) == 0
    )
    rc = run_cli(
        ["verify", "--input", str(inst), "--allocation", str(alloc)]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] is True and doc["alpha"] == "3/4"


def test_verify_subcommand_flags_bad_allocation(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(
        dump_json(
            {
                "agents": 2,
                "items": 4,
                "valuations": [[4, 3, 2, 1], [4, 3, 2, 1]],
            }
        )
    )
    alloc = tmp_path / "alloc.json"
    alloc.write_text(
        dump_json(
            {
                "bundles": [[], [0, 1, 2, 3]],
                "leftover_folded_into": None,
                "stats": None,
            }
        )
    )
    rc = run_cli(["verify", "--input", str(inst), "--allocation", str(alloc)])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["overall"] is False
    assert doc["per_agent"][0]["pass"] is False


def test_verify_alpha_flag(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(
        dump_json(
            {
                "agents": 2,
                "items": 4,
                "valuations": [[4, 3, 2, 1], [4, 3, 2, 1]],
            }
        )
    )
    alloc = tmp_path / "alloc.json"
    alloc.write_text(
        dump_json(
            {
                "bundles": [[2, 3], [0, 1]],
                "leftover_folded_into": None,
                "stats": None,
            }
        )
    )
    # bundle {2,1} is worth 3 against a share of 5: passes at 1/2, not 3/4
    assert (
        run_cli(
            [
                "verify",
                "--input",
                str(inst),
                "--allocation",
                str(alloc),
                "--alpha",
                "1/2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        run_cli(["verify", "--input", str(inst), "--allocation", str(alloc)])
        == 1
    )
    capsys.readouterr()


def oracle_cap_cases(tmp_path):
    # One item past the oracle's cap of 24, through every command that
    # computes an exact share, and one bundle past it for mms.
    big = tmp_path / "big.json"
    big.write_text(dump_json({"agents": 2, "items": 25, "valuations": [[1] * 25] * 2}))
    halves = tmp_path / "halves.json"
    halves.write_text(dump_json({"bundles": [list(range(13)), list(range(13, 25))]}))
    return [
        ["solve", "--input", str(big), "--algorithm", "exist34"],
        ["solve", "--input", str(big), "--verify"],
        ["verify", "--input", str(big), "--allocation", str(halves)],
        ["mms", "--values", ",".join(["1"] * 25), "--k", "2"],
        ["mms", "--values", "4,3", "--k", "25"],
    ]


def bad_input_cases(tmp_path):
    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    floats = tmp_path / "floats.json"
    floats.write_text(
        dump_json({"agents": 1, "items": 2, "valuations": [[0.25, 1.5]]})
    )
    bool_shape = tmp_path / "bool_shape.json"
    bool_shape.write_text(dump_json({"agents": True, "valuations": [[1, 2]]}))
    float_shape = tmp_path / "float_shape.json"
    float_shape.write_text(
        dump_json({"agents": 1.0, "items": 2.0, "valuations": [[1, 2]]})
    )
    return [
        ["solve", "--input", str(tmp_path / "missing.json")],
        ["solve", "--input", str(not_json)],
        ["solve", "--input", str(floats)],
        ["solve", "--input", str(bool_shape)],
        ["solve", "--input", str(float_shape)],
        ["mms", "--values", "4,abc", "--k", "2"],
        ["mms", "--values", "4,3", "--k", "0"],
        ["mms", "--values", "", "--k", "2"],
        ["mms", "--values", "4,,3,2,1", "--k", "2"],
        ["mms", "--values", "4,3,", "--k", "2"],
        ["gen", "--n", "3", "--m", "5", "--dist", "nope:1:2"],
        ["gen", "--n", "0", "--m", "5"],
        ["bench", "--trials", "0"],
        ["bench", "--algorithms", "poly34,quux"],
        ["bench", "--algorithms", ","],
        ["bench", "--algorithms", ""],
        ["bench", "--algorithms", "poly34,poly34"],
        ["bench", "--trials", "1", "--output", str(tmp_path / "no" / "dir" / "x.csv")],
        *oracle_cap_cases(tmp_path),
    ]


def test_input_errors_exit_2(tmp_path, capsys):
    cap_cases = oracle_cap_cases(tmp_path)
    for argv in bad_input_cases(tmp_path):
        assert run_cli(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error:"), argv
        assert out == "", argv
        if argv in cap_cases:
            assert "cap of 24" in err, argv


# Numbers past the 4300-digit limit on int(): as a bare JSON integer, as a
# digit string, and as an exponent that Fraction would expand to 10**5000.
NINES = "9" * 5000
MALFORMED = {"json_int": NINES, "digit_string": NINES, "exponent": "1e5000"}
JSON_ENTRIES = ("solve --input", "verify --input", "verify --allocation")


@pytest.mark.parametrize(
    "entry, kind",
    [(e, k) for e in JSON_ENTRIES for k in MALFORMED]
    + [(e, k) for e in ("verify --alpha", "mms --values") for k in ("digit_string", "exponent")],
)
def test_malformed_numbers_exit_2(tmp_path, capsys, entry, kind):
    text = MALFORMED[kind]
    number = text if kind == "json_int" else f'"{text}"'
    good, halves = tmp_path / "good.json", tmp_path / "halves.json"
    good.write_text(dump_json({"valuations": [[1, 2], [2, 1]]}))
    halves.write_text(dump_json({"bundles": [[0], [1]]}))
    bad_inst, bad_alloc = tmp_path / "bad_inst.json", tmp_path / "bad_alloc.json"
    bad_inst.write_text(f'{{"valuations": [[{number}, 1], [1, 1]]}}')
    bad_alloc.write_text(f'{{"bundles": [[{number}], [1]]}}')
    argv = {
        "solve --input": ["solve", "--input", str(bad_inst)],
        "verify --input": ["verify", "--input", str(bad_inst), "--allocation", str(halves)],
        "verify --allocation": ["verify", "--input", str(good), "--allocation", str(bad_alloc)],
        "verify --alpha": ["verify", "--input", str(good), "--allocation", str(halves), "--alpha", text],
        "mms --values": ["mms", "--values", f"4,{text}", "--k", "2"],
    }[entry]
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""


# Fields within the digit limit whose sum is past it: the share of two
# 4300-digit items at k = 1, and one agent's bundle of both, have 4301 digits.
LONG = "9" * 4300
LONG_RESULTS = {
    "mms --values": lambda inst, alloc: ["mms", "--values", f"{LONG},{LONG}", "--k", "1"],
    "solve --verify": lambda inst, alloc: ["solve", "--input", inst, "--verify"],
    "verify": lambda inst, alloc: ["verify", "--input", inst, "--allocation", alloc],
}


@pytest.mark.parametrize("entry", LONG_RESULTS)
def test_results_past_the_digit_limit_exit_2(tmp_path, capsys, entry):
    inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst.write_text(dump_json({"valuations": [[LONG, LONG]]}))
    alloc.write_text(dump_json({"bundles": [[0, 1]]}))
    assert run_cli(LONG_RESULTS[entry](str(inst), str(alloc))) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""
    # A plain solve prints only normalized values, so it still succeeds.
    assert run_cli(["solve", "--input", str(inst)]) == 0
    assert json.loads(capsys.readouterr().out)["bundles"] == [[0, 1]]


def test_solve_verify_refuses_over_cap_before_solving(tmp_path, capsys, monkeypatch):
    inst = gen_file(tmp_path, "wide.json", 60, 600, 1)
    solved = []
    monkeypatch.setattr(cli, "run_algorithm", lambda name, instance: solved.append(name))
    assert run_cli(["solve", "--input", str(inst), "--verify"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "600 items exceeds the search cap of 24" in err
    assert solved == []


def test_invariant_violations_exit_3(tmp_path, capsys, monkeypatch):
    inst = gen_file(tmp_path, "inst.json", 2, 5, 1)

    def boom(name, instance):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli, "run_algorithm", boom)
    assert run_cli(["solve", "--input", str(inst)]) == 3
    assert capsys.readouterr().err.startswith("internal error:")


def bench_lines(tmp_path, name, extra=()):
    out = tmp_path / name
    rc = run_cli(
        [
            "bench",
            "--trials",
            "4",
            "--n",
            "3",
            "--m",
            "9",
            "--seed",
            "100",
            "--algorithms",
            "poly34,exist34plus",
            "--output",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out.read_text().splitlines()


def test_bench_csv_shape_and_guarantees(tmp_path):
    lines = bench_lines(tmp_path, "bench.csv")
    assert lines[0] == (
        "trial,algorithm,n,m,seed,min_ratio,update_loop_iterations,bag_rounds"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4 * 2
    cap = 4 * 3**3 + 16
    for row in rows:
        assert row[1] in ("poly34", "exist34plus")
        assert row[2] == "3" and row[3] == "9"
        assert Fraction(row[5]) >= Fraction(3, 4)
        assert int(row[6]) <= cap


def test_bench_is_byte_deterministic(tmp_path):
    first = bench_lines(tmp_path, "one.csv")
    assert bench_lines(tmp_path, "two.csv") == first
    assert first[1:] == [
        "0,poly34,3,9,100,190/177,0,0",
        "0,exist34plus,3,9,100,190/177,0,0",
        "1,poly34,3,9,101,99/128,0,0",
        "1,exist34plus,3,9,101,160/153,0,0",
        "2,poly34,3,9,102,179/191,0,0",
        "2,exist34plus,3,9,102,179/191,0,0",
        "3,poly34,3,9,103,1,0,0",
        "3,exist34plus,3,9,103,94/99,0,0",
    ]


def tally_lines(err, label):
    """The values of one tally line, one per algorithm, from bench stderr."""
    lines = [line for line in err.splitlines() if line.startswith(f"  {label}")]
    return [line[len(label) + 2 :].strip() for line in lines]


def test_bench_range_sweep_certifies_every_guarantee(capsys):
    argv = ["bench", "--trials", "12", "--seed", "90000", "--n", "2:5"]
    argv += ["--m", "2:12", "--dist", "uniform:0:100"]
    argv += ["--algorithms", "poly34,exist34,exist34plus"]
    assert run_cli(argv) == 0
    out, err = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12 * 3
    for row in rows:
        got = int(row["n"]), int(row["m"]), int(row["seed"])
        assert got == sweep_params(int(row["trial"]))
    for name in ("poly34", "exist34", "exist34plus"):
        assert f"{name}:\n" in err
    assert tally_lines(err, "failing seeds") == ["none"] * 3


def test_bench_exits_1_when_a_guarantee_fails(capsys, monkeypatch):
    def all_to_agent_0(name, inst):
        bundles = (tuple(range(inst.m)),) + ((),) * (inst.n - 1)
        return Allocation(bundles), SolveStats(0, 0, 0, 0, None, ())

    monkeypatch.setattr(cli, "run_algorithm", all_to_agent_0)
    assert run_cli(["bench", "--trials", "3", "--seed", "7"]) == 1
    out, err = capsys.readouterr()
    assert [line.split(",")[5] for line in out.splitlines()[1:]] == ["0"] * 3
    assert tally_lines(err, "failing seeds") == ["7 8 9"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "4:3"],
        ["--n", "3", "--m", "2"],
        ["--n", "3:5", "--m", "1"],
        ["--n", "2", "--m", "2:30"],
        ["--algorithms", "poly34,quux"],
        ["--trials", "-3"],
        ["--m", "30"],
        ["--n", "0"],
        ["--seed", "-1"],
        ["--seed", str(2**64 - 1)],
        ["--n", "x"],
        ["--dist", "nope:1:2"],
    ],
    ids=[
        "n-range-empty",
        "m-below-n",
        "m-cap-below-n",
        "m-above-oracle-cap",
        "unknown-algorithm",
        "count-below-1",
        "m-30",
        "n-0",
        "seed-negative",
        "seed-past-64-bits",
        "n-malformed",
        "dist-unknown",
    ],
)
def test_bench_bad_arguments_exit_2(capsys, argv):
    assert run_cli(["bench", "--trials", "2", *argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert out == ""
