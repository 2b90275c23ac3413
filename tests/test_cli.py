import hashlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import grouped_run_tiled, permute

from adipsim import cli, tiling
from adipsim.array import SIZE_LIMIT
from adipsim.cli import main, read_matrix
from adipsim.numerics import VALID_WIDTHS, signed_range
from adipsim.preprocess import Precision


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- matrix text files ----------------------------------------------------------


def write_matrix(matrix, width, fh):
    """Write `matrix` in the matrix text format, `read_matrix`'s inverse."""
    rows, cols = matrix.shape
    fh.write(f"{rows} {cols} {width}\n")
    for row in matrix:
        fh.write(" ".join(str(int(v)) for v in row) + "\n")


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.integers(-128, 128, size=(3, 5))
    path = tmp_path / "m.txt"
    with open(path, "w") as fh:
        write_matrix(matrix, 8, fh)
    loaded, width = read_matrix(str(path))
    assert width == 8
    assert np.array_equal(loaded, matrix)


def test_matrix_file_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2 8\n1 2 3\n")
    with pytest.raises(ValueError):
        read_matrix(str(path))
    path.write_text("1 1 4\n99\n")
    with pytest.raises(ValueError):
        read_matrix(str(path))
    for width in (0, 3, 16):
        path.write_text(f"1 1 {width}\n0\n")
        with pytest.raises(ValueError, match="bad.txt.*width"):
            read_matrix(str(path))
    for header in ("-1 -1 8", "-2 0 8", "0 -3 8"):
        path.write_text(header + "\n1\n")
        with pytest.raises(ValueError, match="bad.txt.*negative"):
            read_matrix(str(path))


@pytest.mark.parametrize(
    "text", ["1 1 8\n99999999999999999999\n", "1 1 8\n-99999999999999999999\n", "0 99999999999999999999 8\n"]
)
def test_simulate_rejects_matrix_files_beyond_int64(capsys, tmp_path, text):
    big = tmp_path / "big.txt"
    big.write_text(text)
    weights = tmp_path / "w.txt"
    weights.write_text("1 1 8\n5\n")
    code, out, err = run_cli(capsys, "simulate", "--size", "2", "--a", str(big), "--b", str(weights))
    assert code == 2
    assert out == ""
    assert err.startswith("adipsim: ") and "big.txt" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text", ["1 2 8\n1_0 1\n", "1 2 8\n\u0661 1\n", "1 1 8\n+\n", "1 1_0 8\n" + "1 " * 10 + "\n", "1 1 8\n\uff11\n"]
)
def test_simulate_rejects_tokens_that_are_not_ascii_decimals(capsys, tmp_path, text):
    """`int` would read `1_0` as 10 and Arabic-Indic or full-width digits as
    their values; the matrix format is ASCII signed decimals only."""
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt.*non-integer token"):
        read_matrix(str(bad))
    weights = tmp_path / "w.txt"
    weights.write_text("1 1 8\n5\n")
    code, out, err = run_cli(capsys, "simulate", "--size", "2", "--a", str(bad), "--b", str(weights))
    assert code == 2
    assert out == ""
    assert err.startswith("adipsim: ") and "bad.txt" in err and "Traceback" not in err


@st.composite
def _matrix_texts(draw):
    """A well-formed small matrix file, then up to three overwritten or
    inserted characters or huge tokens, and maybe a truncation."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    width = draw(st.sampled_from(VALID_WIDTHS))
    values = draw(st.lists(st.integers(*signed_range(width)), min_size=rows * cols, max_size=rows * cols))
    text = f"{rows} {cols} {width}\n" + "".join(
        " ".join(str(v) for v in values[i * cols : (i + 1) * cols]) + "\n" for i in range(rows)
    )
    garbage = st.one_of(st.sampled_from(list("0123456789-+_ \nx.")), st.sampled_from(["9" * 20, "-" + "9" * 20]))
    for at, piece, insert in draw(st.lists(st.tuples(st.integers(0, len(text)), garbage, st.booleans()), max_size=3)):
        text = text[:at] + piece + text[at + (0 if insert else 1) :]
    cut = draw(st.one_of(st.none(), st.integers(0, len(text))))
    return text if cut is None else text[:cut]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_matrix_texts())
def test_read_matrix_yields_a_matrix_or_value_error(tmp_path_factory, text):
    """Any text: either a ValueError, or a matrix that write_matrix writes
    back as the same integer tokens and that reads back unchanged."""
    path = tmp_path_factory.mktemp("matrix") / "m.txt"
    path.write_text(text)
    try:
        matrix, width = read_matrix(str(path))
    except ValueError:
        return
    out = io.StringIO()
    write_matrix(matrix, width, out)
    assert [int(t) for t in out.getvalue().split()] == [int(t) for t in text.split()]
    path.write_text(out.getvalue())
    again, again_width = read_matrix(str(path))
    assert again_width == width and again.shape == matrix.shape and np.array_equal(again, matrix)


# -- analytic ---------------------------------------------------------------------


def test_analytic_table(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "analytic", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "M,precision,dmul_cycles,latency_cycles,throughput_tops"
    assert len(lines) == 1 + 12  # 4 multiplier counts x 3 precisions
    again = tmp_path / "sweep2.csv"
    assert run_cli(capsys, "analytic", "--out", str(again))[0] == 0
    assert again.read_text() == out.read_text()  # deterministic


# -- simulate ---------------------------------------------------------------------


def test_simulate_default_passes(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--size", "4", "--seed", "3")
    assert code == 0
    assert "PASS" in out


def test_simulate_reproducible_byte_for_byte(capsys):
    args = ("simulate", "--size", "4", "--mode", "w4", "--nw", "2", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_qkv_demo_emits_three_matrices(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--size", "4", "--mode", "w2", "--nw", "3", "--seed", "5"
    )
    assert code == 0
    assert "x3 matrices" in out
    assert "PASS all 3" in out


def test_simulate_from_files(capsys, tmp_path):
    rng = np.random.default_rng(1)
    a_path, b_path = tmp_path / "a.txt", tmp_path / "b.txt"
    with open(a_path, "w") as fh:
        write_matrix(rng.integers(-128, 128, size=(5, 6)), 8, fh)
    with open(b_path, "w") as fh:
        write_matrix(rng.integers(-8, 8, size=(6, 7)), 4, fh)
    code, out, _ = run_cli(
        capsys, "simulate", "--size", "4", "--mode", "w4",
        "--a", str(a_path), "--b", str(b_path),
    )
    assert code == 0
    assert "5x6 . 6x7" in out and "PASS" in out


def _write_matrix_file(path, matrix, width):
    with open(path, "w") as fh:
        write_matrix(np.asarray(matrix), width, fh)
    return str(path)


def test_simulate_takes_an_input_file_of_any_width(capsys, tmp_path):
    """An input file is read by the weight files' rule, width at most 8: a
    4-bit header holds valid 8-bit inputs."""
    a = _write_matrix_file(tmp_path / "a.txt", [[-8, 7], [3, 0]], 4)
    b = _write_matrix_file(tmp_path / "b.txt", [[1, -2], [0, 1]], 2)
    code, out, err = run_cli(capsys, "simulate", "--size", "2", "--mode", "w2", "--a", a, "--b", b)
    assert (code, err) == (0, "")
    assert "2x2 . 2x2 x1 matrices" in out and "PASS" in out


def test_simulate_rejects_a_weight_file_wider_than_the_mode(capsys, tmp_path):
    a = _write_matrix_file(tmp_path / "a.txt", [[1]], 8)
    b = _write_matrix_file(tmp_path / "b.txt", [[1]], 8)
    code, out, err = run_cli(capsys, "simulate", "--size", "2", "--mode", "w2", "--a", a, "--b", b)
    assert (code, out) == (2, "")
    assert err == f"adipsim: {b} is 8-bit, mode allows 2\n"


@pytest.mark.parametrize("given", ["--a", "--b"])
def test_simulate_takes_input_and_weight_files_together(capsys, tmp_path, given):
    path = _write_matrix_file(tmp_path / "m.txt", [[1]], 8)
    code, out, err = run_cli(capsys, "simulate", given, path)
    assert (code, out) == (2, "")
    assert err == "adipsim: --a and --b must be given together\n"


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("simulate", "--nw", "2"),
        ("simulate", "--m", "3"),
        ("simulate", "--k", "3"),
        ("simulate", "--p", "3"),
        ("simulate", "--seed", "0"),
        ("interleave", "--nw", "1"),
        ("interleave", "--rows", "3"),
        ("interleave", "--cols", "3"),
        ("interleave", "--seed", "0"),
    ],
)
def test_generation_options_are_rejected_with_matrix_files(capsys, tmp_path, command, option, value):
    """With matrix files the files give the matrices and their count, so an
    option that sizes, counts or seeds generated matrices is an error that
    names it, even at its default value, and no output file is written."""
    path = _write_matrix_file(tmp_path / "m.txt", [[1, 0], [0, 1]], 2)
    out = tmp_path / "x.adip"
    if command == "simulate":
        argv = ("simulate", "--size", "2", "--mode", "w2", "--a", path, "--b", path)
        files = "--a/--b"
    else:
        argv = ("interleave", "--size", "2", "--mode", "w2", "--in", path, "--out", str(out))
        files = "--in"
    code, text, err = run_cli(capsys, *argv, option, value)
    assert (code, text) == (2, "")
    assert err == f"adipsim: {option} cannot be given with {files}\n"
    assert not out.exists()
    assert run_cli(capsys, *argv)[0] == 0


@pytest.mark.parametrize("files", [False, True], ids=["generated", "files"])
def test_simulate_prints_the_plans_passes_and_clock(capsys, tmp_path, files):
    """Three W2 matrices of 6 columns on 4 x 4, generated or read from
    files: `simulate` prints the plan's pass count and clock, every weight
    load hidden behind the pass before it."""
    if files:
        rng = np.random.default_rng(3)
        a = _write_matrix_file(tmp_path / "a.txt", rng.integers(-128, 128, (9, 11)), 8)
        argv = ["--a", a]
        for t in range(3):
            argv += ["--b", _write_matrix_file(tmp_path / f"b{t}.txt", rng.integers(-2, 2, (11, 6)), 2)]
    else:
        argv = ["--nw", "3", "--m", "9", "--k", "11", "--p", "6"]
    code, out, err = run_cli(capsys, "simulate", "--size", "4", "--mode", "w2", *argv)
    assert (code, err) == (0, "")
    the_plan = tiling.TiledPlan.from_shape(9, 11, 6, 3, Precision.W2, 4)
    assert f"\npasses {the_plan.pass_count}  cycles {the_plan.cycles}\n" in out


def test_simulate_overlap_weights_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--overlap-weights"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--overlap-weights" in captured.err


def test_simulate_trace_written(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--size", "4", "--m", "4", "--k", "4", "--p", "4",
        "--trace", str(trace),
    )
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "cycle,row,col,input,psum0,psum1,psum2,psum3"
    assert len(lines) == 1 + 9 * 16  # one tile: 9 cycles x 16 PEs


# The default `simulate --mode w4 --nw 3` trace: three 16 x 16 matrices of
# 2 x 2 tiles packed into two virtual matrices of 3 column tiles, 6 passes
# of 8 x 8 PEs, 144 cycles with 64 lines each under the header. Taken
# after the same run matched the per-cycle stepper of
# tests/test_closed_form.py byte for byte; both pins were re-taken from
# `simulate --overlap-weights` when that option became the only clock.
PINNED_CLI_TRACE = ("5a6c1db926cb565adcf5534075758fd19e9d0bb957a1865db724c1040ad5aa96", 9217)
# The same command under the schedule that fused separate matrices r at a
# time (`reference.grouped_run_tiled`): 8 passes, 192 cycles. Its sha256
# was taken from the per-cycle stepping model.
GROUPED_CLI_TRACE = ("a1dad27533ca36c8e725982d38be92cf0821447915349d921eae57408cb9ccb1", 12289)


def _simulate_trace(capsys, tmp_path):
    trace = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "simulate", "--mode", "w4", "--nw", "3", "--trace", str(trace))
    assert code == 0 and "PASS" in out
    data = trace.read_bytes()
    return hashlib.sha256(data).hexdigest(), data.count(b"\n")


def test_simulate_trace_file_is_pinned(capsys, tmp_path):
    assert _simulate_trace(capsys, tmp_path) == PINNED_CLI_TRACE


def test_simulate_trace_file_keeps_the_grouped_pin(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tiling, "run_tiled", grouped_run_tiled)
    assert _simulate_trace(capsys, tmp_path) == GROUPED_CLI_TRACE


# -- workload ---------------------------------------------------------------------


def test_workload_bitnet_annotations(capsys):
    code, out, _ = run_cli(capsys, "workload", "bitnet")
    assert code == 0
    assert "total latency improvement 53.6%" in out
    assert "projection latency improvement 75.0%" in out


def test_workload_gpt2_energy_overhead(capsys):
    code, out, _ = run_cli(capsys, "workload", "gpt2-medium")
    assert code == 0
    line = next(l for l in out.splitlines() if "total energy improvement" in l)
    overhead = -float(line.rsplit(" ", 1)[1].rstrip("%"))
    assert overhead == pytest.approx(62.8, abs=1.5)


def test_workload_csv_and_json_artifacts(capsys, tmp_path):
    csv_path = tmp_path / "stages.csv"
    code, _, _ = run_cli(capsys, "workload", "bert-large", "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "stage,arch,cycles,energy_rel,bytes_in,bytes_w,bytes_out"
    assert len(lines) == 1 + 2 * 4  # two architectures x four stages

    json_path = tmp_path / "summary.json"
    code, _, _ = run_cli(
        capsys, "workload", "bert-large", "--format", "json", "--out", str(json_path)
    )
    assert code == 0
    info = json.loads(json_path.read_text())
    assert info["model"] == "bert-large"
    assert info["vs_dip"]["memory_savings_pct"] == pytest.approx(40.0, abs=2.5)


def test_workload_custom_json_model(capsys, tmp_path):
    doc = {
        "name": "tiny",
        "layers": 2,
        "d_model": 64,
        "heads": 4,
        "d_k": 16,
        "seq_len": 32,
        "weight_bits": 4,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "workload", str(path))
    assert code == 0
    assert "model tiny" in out


@pytest.mark.parametrize(
    "field, value",
    [("layers", 1.5), ("d_model", "64"), ("heads", True), ("weight_bits", 8.0), ("name", 5)],
)
def test_workload_json_model_fields_must_be_integers(capsys, tmp_path, field, value):
    """A fractional, string or boolean count in a model file exits 2 with a
    message naming the field, before any report line."""
    doc = {"name": "tiny", "layers": 2, "d_model": 64, "heads": 4, "d_k": 16, "seq_len": 32, "weight_bits": 4}
    doc[field] = value
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "workload", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"adipsim: {field} must be ")


def test_workload_json_model_must_be_an_object(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "workload", str(path))
    assert (code, out) == (2, "")
    assert "must be a JSON object" in err


def test_workload_json_model_must_not_repeat_a_field(capsys, tmp_path):
    """A repeated field exits 2 naming it, rather than the last value
    winning: this document would otherwise report a model named y."""
    path = tmp_path / "twice.json"
    path.write_text(
        '{"name": "x", "layers": 2, "d_model": 16, "heads": 2, "d_k": 8, "seq_len": 8, "weight_bits": 4, "name": "y"}'
    )
    code, out, err = run_cli(capsys, "workload", str(path), "--size", "4")
    assert (code, out) == (2, "")
    assert err == "adipsim: model document repeats field 'name'\n"


def test_workload_unknown_model(capsys):
    code, _, err = run_cli(capsys, "workload", "nosuchmodel")
    assert code == 2
    assert "unknown model" in err


def test_workload_output_write_accounting_is_optional(capsys, tmp_path):
    """--output-bytes alone sets what an output write costs; 0, the
    default, counts none."""
    reports = {}
    for option in ([], ["--output-bytes", "0"], ["--output-bytes", "4"]):
        path = tmp_path / "report.json"
        assert run_cli(capsys, "workload", "bert-large", "--format", "json", "--out", str(path), *option)[0] == 0
        reports[" ".join(option)] = json.loads(path.read_text())
    assert reports["--output-bytes 0"] == reports[""]
    for arch in ("DiP", "ADiP"):
        assert reports["--output-bytes 4"]["totals"][arch]["mem_bytes"] > reports[""]["totals"][arch]["mem_bytes"]


def test_workload_count_output_writes_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["workload", "bert", "--count-output-writes"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "--count-output-writes" in captured.err


def test_workload_builtin_name_wins_over_a_directory_of_that_name(capsys, tmp_path, monkeypatch):
    """Run where a `bert/` directory sits, `workload bert` still reports
    the built-in BERT Large; only a name that is not built in is read as
    a JSON file."""
    code, report, _ = run_cli(capsys, "workload", "bert", "--size", "16")
    assert code == 0 and report.startswith("model bert-large:")
    (tmp_path / "bert").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "workload", "bert", "--size", "16") == (0, report, "")


def test_workload_size_without_power_factor_prints_no_report(capsys):
    code, out, err = run_cli(capsys, "workload", "bert", "--size", "7")
    assert code == 2
    assert out == ""
    assert "size 7" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_workload_bad_out_path_prints_no_report(capsys, tmp_path, fmt):
    """An --out that cannot be opened exits 2 before the text report is
    printed, so stdout stays empty."""
    missing = tmp_path / "no-such-dir" / "x"
    code, out, err = run_cli(capsys, "workload", "bert", "--format", fmt, "--out", str(missing))
    assert code == 2
    assert out == ""
    assert "no-such-dir" in err
    assert not missing.parent.exists()


def test_sweep_plans_from_shape_at_any_size(capsys, tmp_path):
    """The sweep's pass counts come from the shape alone, so an array size
    far beyond what fits in memory still gives its row."""
    out = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--sizes", "4,99999999999", "--out", str(out))
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["size", "mode", "throughput_gain", "peak_tops", "power_factor"]
    assert [row[:3] for row in rows[4:]] == [
        ["99999999999", "W8", "1"],
        ["99999999999", "W4", "2"],
        ["99999999999", "W2", "4"],
    ]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_sweep_that_fails_writes_nothing(capsys, tmp_path, to_file):
    """A clock that overflows (1e300 GHz), a finite clock whose rates
    overflow (1e299 GHz is 1e308 Hz), or a size whose rates overflow
    (10^160), fails either table before any output: no CSV header on
    stdout, and no --out file."""
    out = tmp_path / "sweep.csv"
    cases = [
        ((command, "--clock-ghz", clock), message)
        for command in ("sweep", "analytic")
        for clock, message in [
            ("1e300", "clock_hz must be a positive finite number"),
            ("1e299", "clock_hz 1e+308 gives a rate that overflows a float"),
        ]
    ]
    size_message = "the array size gives a rate that overflows a float"
    cases += [(("sweep", "--sizes", str(10**160)), size_message), (("analytic", "--size", str(10**160)), size_message)]
    for argv, message in cases:
        code, stdout, err = run_cli(capsys, *argv, *(("--out", str(out)) if to_file else ()))
        assert (code, stdout) == (2, ""), argv
        assert message in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("analytic", "--size", "0"),
        ("simulate", "--size", "0"),
        ("simulate", "--nw", "0"),
        ("simulate", "--m", "0"),
        ("simulate", "--k", "0"),
        ("simulate", "--p", "-1"),
        ("workload", "bert", "--size", "0"),
        ("interleave", "--rows", "0"),
        ("interleave", "--cols", "0"),
        ("interleave", "--nw", "0"),
        ("interleave", "--size", "-4"),
    ],
)
def test_non_positive_sizes_rejected(capsys, tmp_path, argv):
    if argv[0] == "interleave":
        argv += ("--out", str(tmp_path / "x.bin"))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "positive integer" in captured.err
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize("command", ["analytic", "sweep"])
@pytest.mark.parametrize("clock", ["0", "-1", "nan", "inf"])
def test_clock_must_be_positive_and_finite(capsys, command, clock):
    with pytest.raises(SystemExit) as exc:
        main([command, "--clock-ghz", clock])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "positive finite number" in captured.err


# Every numeric option, with the value it is given below and whether it is
# an integer; each command runs as given with that value.
_NUMERIC_OPTIONS = [
    (("analytic",), "--size", "16", True),
    (("analytic",), "--muls", "2,16", True),
    (("analytic",), "--clock-ghz", "10", False),
    (("sweep",), "--sizes", "4,16", True),
    (("sweep",), "--clock-ghz", "10", False),
    (("simulate", "--size", "4"), "--seed", "10", True),
    (("simulate",), "--size", "4", True),
    (("simulate",), "--nw", "2", True),
    (("simulate",), "--m", "4", True),
    (("workload", "bert"), "--size", "16", True),
    (("workload", "bert"), "--output-bytes", "4", True),
    (("interleave", "--out", "x.adip"), "--seed", "10", True),
    (("interleave", "--out", "x.adip"), "--cols", "16", True),
]


@pytest.mark.parametrize("prefix, option, value, integral", _NUMERIC_OPTIONS, ids=lambda v: str(v))
@pytest.mark.parametrize(
    "spoil",
    [
        lambda v: v[0] + "_" + v[1:] if len(v) > 1 else v + "_0",  # an underscore, which `int` skips
        lambda v: v.translate({ord(c): ord(c) + 0xFEE0 for c in "0123456789"}),  # full-width digits
        lambda v: v.translate({ord(c): ord(c) + 0x0630 for c in "0123456789"}),  # Arabic-Indic digits
        lambda v: " " + v,
        lambda v: v + " ",
        lambda v: v + "\n",
    ],
    ids=["underscore", "full-width", "arabic-indic", "leading-space", "trailing-space", "newline"],
)
def test_numeric_options_take_only_ascii_decimals(capsys, tmp_path, monkeypatch, prefix, option, value, integral, spoil):
    """Each numeric option reads ASCII decimal digits, as matrix files do:
    a value that `int` or `float` would read but that holds an underscore,
    non-ASCII digits or padding exits 2 naming the text, with nothing on
    stdout and no file written; the plain value runs."""
    monkeypatch.chdir(tmp_path)
    head, comma, last = value.rpartition(",")  # a list spoils its last token
    token = spoil(last)
    assert (int if integral else float)(token) > 0  # what `int` or `float` alone would take
    with pytest.raises(SystemExit) as exc:
        main([*prefix, option, head + comma + token])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"{token!r} is not a" in captured.err
    assert not (tmp_path / "x.adip").exists()
    assert main([*prefix, option, value]) == 0


@pytest.mark.parametrize(
    "option, text, value",
    [("--size", "+016", 16), ("--clock-ghz", ".5e1", 5.0), ("--clock-ghz", "2.", 2.0), ("--clock-ghz", "25E-1", 2.5)],
)
def test_numeric_options_take_signs_points_and_exponents(capsys, option, text, value):
    """ASCII forms with a sign, leading zeros, a bare point or an exponent
    read as the plain number."""
    code, out, _ = run_cli(capsys, "analytic", option, text)
    assert code == 0
    assert out == run_cli(capsys, "analytic", option, str(value))[1]


@pytest.mark.parametrize("command, option", [("sweep", "--sizes"), ("analytic", "--muls")])
@pytest.mark.parametrize("value, token", [("0", "'0'"), ("-4", "'-4'"), ("4,x", "'x'"), ("4,,8", "''")])
def test_list_options_are_checked_before_any_output(capsys, tmp_path, command, option, value, token):
    """A bad list value exits 2 naming the token, with nothing written to
    stdout or to `--out`."""
    for out in ("-", str(tmp_path / "out.csv")):
        with pytest.raises(SystemExit) as exc:
            main([command, option, value, "--out", out])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert f"{token} is not a positive integer" in captured.err
    assert not (tmp_path / "out.csv").exists()


# -- interleave ---------------------------------------------------------------------


def test_interleave_verify_passes(capsys, tmp_path):
    out = tmp_path / "packed.bin"
    code, text, _ = run_cli(
        capsys, "interleave", "--size", "4", "--mode", "w2", "--nw", "4",
        "--rows", "6", "--cols", "9", "--out", str(out), "--verify",
    )
    assert code == 0
    assert "PASS round trip" in text
    assert out.read_bytes()[:4] == b"ADIP"


def test_interleave_w8_dump_is_permuted_input(capsys, tmp_path):
    rng = np.random.default_rng(2)
    matrix = rng.integers(-128, 128, size=(4, 4))
    src = tmp_path / "w.txt"
    with open(src, "w") as fh:
        write_matrix(matrix, 8, fh)
    out = tmp_path / "packed.bin"
    code, text, _ = run_cli(
        capsys, "interleave", "--size", "4", "--mode", "w8",
        "--in", str(src), "--out", str(out),
    )
    assert code == 0
    dumped = [
        [int(tok, 16) for tok in line.split()]
        for line in text.splitlines()
        if line and all(len(tok) == 2 for tok in line.split())
    ]
    expected = permute(matrix).astype(np.uint8)
    assert np.array_equal(np.array(dumped, dtype=np.uint8), expected)


# sha256 and line count of `adipsim interleave --verify` stdout, written to
# w.adip, per mode: a ragged shape and a fixed seed each, so the dump of
# every tile, in order, is pinned.
PINNED_INTERLEAVE_DUMPS = {
    ("w8", "1", "3", "5", "7", "1"): ("febe7e79ab1eeee5df4635a1584e66eafbd0989ad27df38cb35b939e6f1ed942", 26),
    ("w4", "2", "5", "7", "11", "2"): ("540696874be76b34239b6c67f1c00e799c79105145813c83a8e328df30583fb8", 38),
    ("w2", "4", "4", "9", "6", "3"): ("0fb401c7035bb21886975c4489d14472d478c2d8c187dcc491a7a98248d5121a", 32),
}


@pytest.mark.parametrize("args", sorted(PINNED_INTERLEAVE_DUMPS), ids="-".join)
def test_interleave_dump_is_pinned(capsys, tmp_path, monkeypatch, args):
    mode, nw, size, rows, cols, seed = args
    monkeypatch.chdir(tmp_path)
    code, text, _ = run_cli(
        capsys, "interleave", "--mode", mode, "--nw", nw, "--size", size,
        "--rows", rows, "--cols", cols, "--seed", seed, "--out", "w.adip", "--verify",
    )
    assert code == 0
    data = text.encode()
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == PINNED_INTERLEAVE_DUMPS[args]


@pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
def test_interleave_rejects_matrices_with_no_tiles(capsys, tmp_path, shape):
    src = tmp_path / "w.txt"
    with open(src, "w") as fh:
        write_matrix(np.zeros(shape, dtype=np.int64), 8, fh)
    out = tmp_path / "packed.bin"
    code, text, err = run_cli(capsys, "interleave", "--size", "4", "--in", str(src), "--out", str(out))
    assert code == 2
    assert text == ""
    assert f"{shape[0]}x{shape[1]} matrices fill no tile" in err
    assert not out.exists()


def test_interleave_packs_as_many_matrices_as_files(capsys, tmp_path):
    """Two --in files pack two matrices, with no --nw, and round-trip."""
    first = _write_matrix_file(tmp_path / "w1.txt", [[1, -2, 0], [-1, 1, 1]], 2)
    second = _write_matrix_file(tmp_path / "w2.txt", [[0, 1, -2], [1, -1, 0]], 2)
    out = tmp_path / "w.adip"
    code, text, err = run_cli(
        capsys, "interleave", "--size", "2", "--mode", "w2", "--in", first, "--in", second,
        "--out", str(out), "--verify",
    )
    assert (code, err) == (0, "")
    assert text.startswith("packed 2 matrices 2x3 into 1x2 tiles of 2x2 words")
    assert "PASS round trip" in text
    assert out.read_bytes()[:10] == b"ADIP\x02\x00\x02\x02\x01\x00"


def test_interleave_rejects_nw_above_r(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "interleave", "--size", "4", "--mode", "w4", "--nw", "3",
        "--out", str(tmp_path / "x.bin"),
    )
    assert code == 2
    assert "nw=3" in err


def test_interleave_rejects_grids_beyond_the_header(capsys, tmp_path):
    """65 536 tile rows do not fit the packed header's u16 field: a clear
    error, exit 2, and no output file."""
    out = tmp_path / "big.bin"
    code, text, err = run_cli(
        capsys, "interleave", "--size", "1", "--rows", "65536", "--cols", "1",
        "--mode", "w8", "--nw", "1", "--out", str(out),
    )
    assert code == 2
    assert text == ""
    assert err.startswith("adipsim: grid rows 65536")
    assert not out.exists()


def _forbid_matrices(monkeypatch):
    """Fail the test if the CLI reads or generates any matrix."""

    def forbidden(*args):
        raise AssertionError("a matrix was read or generated")

    for name in ("_random_acts", "_random_weights", "_read_matrices"):
        monkeypatch.setattr(cli, name, forbidden)


@pytest.mark.parametrize("size", [SIZE_LIMIT, 100_000])
@pytest.mark.parametrize("files", [False, True], ids=["generated", "files"])
def test_simulate_rejects_sizes_the_array_cannot_take(capsys, tmp_path, monkeypatch, size, files):
    """`--size` at or above the array's `SIZE_LIMIT` exits 2 before any
    matrix is read or generated (at n = 100 000 the generated input alone
    is 298 GiB) and before the trace file is created; one below, the
    matrices are made."""
    _forbid_matrices(monkeypatch)
    trace = tmp_path / "big.csv"
    argv = ["simulate", "--trace", str(trace)] + (["--a", "a.txt", "--b", "b.txt"] if files else [])
    code, text, err = run_cli(capsys, *argv, "--size", str(size))
    assert (code, text) == (2, "")
    assert err == f"adipsim: --size {size} reaches the array's limit of {SIZE_LIMIT}\n"
    assert not trace.exists()
    with pytest.raises(AssertionError, match="a matrix was"):
        main(argv + ["--size", str(SIZE_LIMIT - 1)])


@pytest.mark.parametrize("size", [65_536, 70_000])
def test_interleave_rejects_sizes_beyond_the_header(capsys, tmp_path, monkeypatch, size):
    """A tile size the packed header's 16-bit field cannot hold exits 2
    before any matrix is generated (at n = 70 000 they alone are 36.5 GiB)
    and writes no file; 65 535 passes the check."""
    _forbid_matrices(monkeypatch)
    out = tmp_path / "big.adip"
    code, text, err = run_cli(capsys, "interleave", "--size", str(size), "--out", str(out))
    assert (code, text) == (2, "")
    assert err == f"adipsim: --size {size} exceeds the packed-file limit of 65535\n"
    assert not out.exists()
    with pytest.raises(AssertionError, match="a matrix was"):
        main(["interleave", "--size", "65535", "--out", str(out)])


def test_simulate_reports_an_accumulator_overflow(capsys, tmp_path):
    """A 1 x 2^17 input of -128 times a 2^17 x 1 W8 matrix of -128 sums to
    2^31, past the 32-bit accumulator: exit 2 with the overflow named, no
    traceback, and no trace file left behind."""
    k = 1 << 17
    (tmp_path / "a.txt").write_text(f"1 {k} 8\n" + " ".join(["-128"] * k) + "\n")
    (tmp_path / "b.txt").write_text(f"{k} 1 8\n" + "-128\n" * k)
    trace = tmp_path / "t.csv"
    code, text, err = run_cli(
        capsys, "simulate", "--size", "4", "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt"),
        "--trace", str(trace),
    )
    assert (code, text) == (2, "")
    assert err == "adipsim: accumulator overflow: a running sum over reduction tiles leaves [-2147483648, 2147483647]\n"
    assert not trace.exists()


def test_a_failing_run_removes_only_a_regular_trace_file(capsys, monkeypatch):
    """A trace path that is not a regular file, such as the null device, is
    left in place when the run raises; only a regular file is removed."""

    def overflowing(job, trace=None):
        raise OverflowError("accumulator overflow")

    removed = []
    monkeypatch.setattr(tiling, "run_tiled", overflowing)
    monkeypatch.setattr(cli.os, "remove", removed.append)
    code, text, err = run_cli(capsys, "simulate", "--size", "4", "--trace", os.devnull)
    assert (code, text, err) == (2, "", "adipsim: accumulator overflow\n")
    assert removed == []


@pytest.mark.parametrize(
    "error, message",
    [(MemoryError("Unable to allocate 298. GiB for an array"), "Unable to allocate 298. GiB for an array"),
     (MemoryError(), "MemoryError")],
    ids=["numpy", "bare"],
)
def test_memory_error_is_a_clear_error(capsys, tmp_path, monkeypatch, error, message):
    """A matrix too large to allocate exits 2 with an `adipsim:` line, no
    traceback and nothing on stdout."""

    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, "_random_acts", exhausted)
    code, text, err = run_cli(capsys, "simulate", "--m", "99999999", "--k", "99999999")
    assert (code, text, err) == (2, "", f"adipsim: {message}\n")


# -- sweep ---------------------------------------------------------------------------


def test_sweep_gain_columns(capsys, tmp_path):
    out = tmp_path / "gains.csv"
    code, _, _ = run_cli(capsys, "sweep", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "size,mode,throughput_gain,peak_tops,power_factor"
    assert len(lines) == 1 + 5 * 3
    for line in lines[1:]:
        size, mode, gain, _, _ = line.split(",")
        assert int(gain) == {"W8": 1, "W4": 2, "W2": 4}[mode]
