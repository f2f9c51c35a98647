import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gonality import cli
from gonality import (
    CSV_HEADER,
    build_graph,
    complete_graph,
    cycle_graph,
    gonality,
    parse_certificate,
    path_graph,
    serialize_certificate,
    serialize_graph,
    serialize_tree_decomposition,
    treewidth_exact,
)
from gonality.cli import main


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(serialize_graph(complete_graph(4)))
    return str(path)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.edges"
    path.write_text(serialize_graph(complete_graph(2)))
    return str(path)


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.edges"
    path.write_text(serialize_graph(path_graph(5)))
    return str(path)


class TestGonalityCommand:
    def test_k4_prints_value(self, k4_file, capsys):
        assert main(["gonality", k4_file]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "3"

    def test_certificate_roundtrip(self, k4_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.txt")
        assert main(["gonality", k4_file, "--certificate", "--out", cert_path]) == 0
        assert main(["verify", k4_file, cert_path]) == 0
        out = capsys.readouterr().out
        assert "ok degree 3" in out

    def test_verify_rejects_corrupted_witness(self, k4_file, tmp_path):
        result = gonality(complete_graph(4))
        lines = serialize_certificate(result.certificate).splitlines()
        lines[2] = "5 5 5 5"  # clobber one witness script
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["verify", k4_file, str(bad)]) == 1

    def test_budget_exit_code(self, k4_file):
        assert main(["gonality", k4_file, "--budget", "1"]) == 2

    @pytest.mark.parametrize("budget, code", [("-1", 1), ("0", 2)])
    def test_negative_budget_is_a_usage_error(self, k4_file, budget, code):
        assert main(["gonality", k4_file, "--budget", budget]) == code

    def test_missing_file_is_domain_error(self):
        assert main(["gonality", "/nonexistent.edges"]) == 1


class TestReduceAndRank:
    def test_reduce_k2_example(self, k2_file, capsys):
        assert main(["reduce", k2_file, "--divisor", "0 1", "--base", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1 0"

    def test_rank_k4_canonical(self, k4_file, capsys):
        assert main(["rank", k4_file, "--divisor", "1 1 1 1"]) == 0
        out = int(capsys.readouterr().out.strip())
        # canonical divisor of K4: rank g - 1 = 2 by duality symmetry
        assert out == 2

    def test_wrong_length_divisor(self, k4_file):
        assert main(["rank", k4_file, "--divisor", "1 1"]) == 1


class TestBoundsCommand:
    def test_p5_summary(self, p5_file, capsys):
        assert main(["bounds", p5_file]) == 0
        out = capsys.readouterr().out
        assert "min_degree 1" in out
        assert "tw_lb 1" in out
        assert "tw_exact 1" in out
        assert "alpha 3 exact" in out
        assert "upper_bound 2" in out

    def test_skip_line_above_limit(self, p5_file, capsys):
        assert main(["bounds", p5_file, "--tw-limit", "4"]) == 0
        assert "tw_exact skipped: n > 4" in capsys.readouterr().out

    def test_negative_tw_limit_is_a_usage_error(self, p5_file, capsys):
        assert main(["bounds", p5_file, "--tw-limit", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error: bounds needs --tw-limit >= 0, got -1" in err

    def test_zero_tw_limit_skips(self, p5_file, capsys):
        assert main(["bounds", p5_file, "--tw-limit", "0"]) == 0
        assert "tw_exact skipped: n > 0" in capsys.readouterr().out

    def test_treewidth_ceiling_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "p64.edges"
        path.write_text(serialize_graph(path_graph(64)))
        assert main(["bounds", str(path), "--tw-limit", "64"]) == 1
        assert "error: treewidth_exact limited to n <= 24, got 64" in capsys.readouterr().err

    def test_frieze_flag(self, tmp_path, capsys):  # at the graph's n
        path = tmp_path / "p100.edges"
        path.write_text(serialize_graph(path_graph(100)))
        assert main(["bounds", str(path), "--c", "10.0"]) == 0
        assert "frieze_alpha 35.508" in capsys.readouterr().out

    def test_td_out(self, p5_file, tmp_path, capsys):
        td_path = tmp_path / "p5.td"
        assert main(["bounds", p5_file, "--td-out", str(td_path)]) == 0
        header = td_path.read_text().splitlines()[0]
        assert header == "5 1"

    @pytest.mark.parametrize("graph", [
        path_graph(5), cycle_graph(6), complete_graph(5), build_graph(0, []), build_graph(3, []),
        build_graph(9, [(0, 1), (0, 2), (1, 2), (4, 5), (6, 7), (7, 8), (8, 6), (6, 5)]),
        build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 6), (6, 3)]),
    ])
    def test_width_path_unless_a_witness_is_asked_for(self, graph, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.edges"
        path.write_text(serialize_graph(graph))
        asked = []
        real = cli.treewidth_exact
        monkeypatch.setattr(cli, "treewidth_exact",
                            lambda *a, **kw: asked.append(kw["with_decomposition"]) or real(*a, **kw))
        assert main(["bounds", str(path)]) == 0
        plain = capsys.readouterr().out
        td_path = tmp_path / "g.td"
        assert main(["bounds", str(path), "--td-out", str(td_path)]) == 0
        assert capsys.readouterr().out == plain
        assert asked == [False, True]
        assert td_path.read_text() == serialize_tree_decomposition(treewidth_exact(graph)[1])


class TestSampleCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = str(tmp_path / "a.edges"), str(tmp_path / "b.edges")
        assert main(["sample", "--n", "30", "--c", "4", "--seed", "9", "--out", a]) == 0
        assert main(["sample", "--n", "30", "--c", "4", "--seed", "9", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_requires_exactly_one_probability_flag(self, capsys):
        assert main(["sample", "--n", "5", "--seed", "1"]) == 1
        assert main(["sample", "--n", "5", "--c", "2", "--p", "0.5", "--seed", "1"]) == 1

    def test_stdout_mode(self, capsys):
        assert main(["sample", "--n", "4", "--p", "1", "--seed", "1"]) == 0
        assert capsys.readouterr().out == serialize_graph(complete_graph(4))


class TestExperimentCommand:
    def test_writes_csv_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        rc = main([
            "experiment", "--n", "5,6", "--c", "2.5", "--trials", "3",
            "--seed", "42", "--mode", "exact", "--out", out,
        ])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        report = capsys.readouterr().out
        assert report.startswith("n,c,trials,")

    def test_porcelain_silences_notes(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        main([
            "--porcelain", "experiment", "--n", "5,6", "--c", "2.5",
            "--trials", "2", "--seed", "1", "--out", out,
        ])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_fewer_than_one_thread_is_a_usage_error(self, threads, capsys):
        rc = main(["experiment", "--n", "5", "--c", "2", "--trials", "1", "--seed", "1", "--threads", threads])
        assert rc == 1
        assert f"needs workers >= 1, got {threads}" in capsys.readouterr().err

    def test_bad_n_list(self, capsys):
        rc = main(["experiment", "--n", "5;6", "--c", "2", "--trials", "1", "--seed", "1"])
        assert rc == 1


class TestIOContract:
    @pytest.fixture
    def not_utf8(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_bytes(b"\xff\xfe\x00")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["gonality", "{bad}"],
        ["rank", "{bad}", "--divisor", "1"],
        ["reduce", "{bad}", "--divisor", "1"],
        ["bounds", "{bad}"],
        ["verify", "{bad}", "{good}"],
        ["verify", "{good}", "{bad}"],
    ])
    def test_file_that_is_not_utf8_is_a_domain_error(self, argv, not_utf8, k4_file, capsys):
        assert main([a.format(bad=not_utf8, good=k4_file) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and f"{not_utf8}: 'utf-8' codec can't decode" in err

    @pytest.mark.parametrize("argv, work", [
        (["gonality", "{graph}", "--certificate", "--out", "{out}"], "gonality"),
        (["bounds", "{graph}", "--td-out", "{out}"], "min_degree"),
        (["sample", "--n", "5", "--c", "2", "--seed", "1", "--out", "{out}"], "sample_gnp"),
        (["experiment", "--n", "5", "--c", "2", "--trials", "1", "--seed", "1", "--out", "{out}"],
         "run_experiment"),
    ])
    def test_unwritable_output_fails_before_any_work(self, argv, work, k4_file, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran before the output path was checked")

        monkeypatch.setattr(cli, work, no_work)
        out = str(tmp_path / "missing" / "out.txt")
        assert main([a.format(graph=k4_file, out=out) for a in argv]) == 1
        captured = capsys.readouterr()
        assert f"error: cannot write {out}" in captured.err
        assert captured.out == ""

    def test_out_without_certificate_is_bad_usage(self, k4_file, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("gonality ran although --out has no certificate to write")

        monkeypatch.setattr(cli, "gonality", no_work)
        out = tmp_path / "c.txt"
        assert main(["gonality", k4_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: --out writes the certificate, so it needs --certificate" in captured.err
        assert captured.out == "" and not out.exists()

    def test_td_out_above_the_tw_limit_is_bad_usage(self, p5_file, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("min_degree ran although --td-out has no witness to write")

        monkeypatch.setattr(cli, "min_degree", no_work)
        out = tmp_path / "p5.td"
        assert main(["bounds", p5_file, "--tw-limit", "4", "--td-out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: --td-out needs the exact width, so n <= --tw-limit 4, got n = 5" in captured.err
        assert captured.out == "" and not out.exists()

    def test_td_out_above_the_treewidth_ceiling_is_refused_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "p30.edges"
        path.write_text(serialize_graph(path_graph(30)))
        out = tmp_path / "w.td"
        assert main(["bounds", str(path), "--tw-limit", "30", "--td-out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "error: treewidth_exact limited to n <= 24, got 30" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("c", ["inf", "nan"])
    def test_non_finite_c_is_refused_before_any_work(self, p5_file, c, capsys):
        assert main(["bounds", p5_file, "--c", c]) == 1
        captured = capsys.readouterr()
        assert "finite c > e" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["gonality", "{bad}"],
        ["sample", "--n", "5", "--c", "2", "--seed", "1", "--out", "{missing}"],
        ["bounds", "{good}", "--c", "nan"],
        ["bounds", "{good}", "--tw-limit", "4", "--td-out", "{missing}"],
    ])
    def test_console_exits_one_without_a_traceback(self, argv, not_utf8, p5_file, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        missing = str(tmp_path / "missing" / "g.edges")
        args = [a.format(bad=not_utf8, good=p5_file, missing=missing) for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "gonality.cli", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# numbers as a user might type them, non-finite and out of range among them
_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "NaN", "1e400", "-0", "0", "-1", "2.5", "p:nan"]),
    st.floats().map(repr),
)
# vertex counts past the 10,000 that parse_graph reads, one past a float too
_HUGE = st.sampled_from([str(10**400), "1000000", "100000", "10001"])
_JUNK = st.sampled_from([b"\xff", b"\xc3", b"\x00", b"x", b"-", b" ", b"\n", b"9", b"nan", b"1.5"])


@st.composite
def _corrupted(draw, text: str) -> bytes:
    """``text`` as UTF-8, truncated, spliced with junk or made not UTF-8."""
    raw = text.encode()
    at = draw(st.integers(0, len(raw) - 1))
    how = draw(st.sampled_from(["truncate", "insert", "replace", "not_utf8"]))
    if how == "truncate":
        return raw[:at]
    if how == "not_utf8":
        return raw[:at] + b"\xff" + raw[at:]
    return raw[:at] + draw(_JUNK) + raw[at + (how == "replace"):]


@st.composite
def _argv(draw, tmp: str) -> list[str]:
    """One subcommand's arguments, with any of the four faults drawn in:
    corrupted input files, an output path in a missing directory, numbers
    that are non-finite or out of range, and vertex counts past the 10,000
    that parse_graph reads or past a float.  Without a fault a value
    is one the command accepts, so each fault also meets the deep paths."""
    faults = draw(st.sets(st.sampled_from(["file", "output", "number", "size"])))

    def number(*good: str) -> str:
        return draw(_NUMBERS if "number" in faults else st.sampled_from(good))

    def size(*good: str) -> str:  # a vertex count
        return draw(_HUGE) if "size" in faults else number(*good)

    def flags(**values) -> list[str]:  # each flag left out or given its value
        return [f for name, v in values.items() if draw(st.booleans()) for f in (f"--{name.replace('_', '-')}", v())]

    def write(name: str, text: str) -> str:
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(draw(_corrupted(text)) if "file" in faults and draw(st.booleans()) else text.encode())
        return path

    graph = draw(st.sampled_from([path_graph(5), complete_graph(4), cycle_graph(5)]))
    graph_file = write("g.edges", serialize_graph(graph))
    cert_file = write("c.txt", serialize_certificate(gonality(graph).certificate))
    out = os.path.join(tmp, *(["missing"] if "output" in faults else []), "out.txt")
    divisor = " ".join(number("0", "1", "2", "-1") for _ in range(draw(st.integers(graph.n - 1, graph.n))))
    command = draw(st.sampled_from(["gonality", "rank", "reduce", "bounds", "sample", "experiment", "verify"]))
    if command == "gonality":
        return [command, graph_file, "--certificate", *flags(budget=lambda: number("1", "5", "40"), out=lambda: out)]
    if command in ("rank", "reduce"):
        base = flags(base=lambda: number("0", "3")) if command == "reduce" else []
        return [command, graph_file, "--divisor", divisor, *base]
    if command == "bounds":
        return [command, graph_file, *flags(budget=lambda: number("1", "100"), tw_limit=lambda: number("0", "16"),
                                            td_out=lambda: out, c=lambda: number("3", "5.5"))]
    if command == "sample":
        rate = draw(st.sampled_from([["--c", number("2", "3.5")], ["--p", number("0.5", "1", "0")]]))
        return [command, "--n", size("5", "8"), "--seed", number("1", "7"), *rate, *flags(out=lambda: out)]
    if command == "experiment":
        c_spec = draw(st.sampled_from(["sqrt", "log", "p:" + number("0.5", "1"), number("2", "3.5")]))
        # one worker: a process pool per example would take most of the time
        return [command, "--n", ",".join([size("5", "6")] * draw(st.integers(1, 2))), "--c", c_spec,
                "--mode", draw(st.sampled_from(["exact", "sandwich"])),
                "--trials", number("1", "2"), "--seed", number("1", "7"),
                *flags(budget=lambda: number("1", "50"), out=lambda: out)]
    return [command, graph_file, cert_file]


class TestCLIProperty:
    """Every subcommand, given corrupted or non-UTF-8 files, output paths in
    missing directories, non-finite numbers and vertex counts past the
    limits, exits 0, 1 or 2 and never with a traceback."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_every_subcommand_exits_as_documented(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            argv = data.draw(_argv(tmp))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv


class TestUsageErrors:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_unknown_flag_exits_one(self, k4_file):
        with pytest.raises(SystemExit) as info:
            main(["gonality", k4_file, "--wat"])
        assert info.value.code == 1


def test_certificate_text_roundtrip():
    result = gonality(complete_graph(4))
    text = serialize_certificate(result.certificate)
    back = parse_certificate(text, 4)
    assert back == result.certificate
