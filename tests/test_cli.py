import pytest

from gonality import (
    CSV_HEADER,
    complete_graph,
    gonality,
    parse_certificate,
    path_graph,
    serialize_certificate,
    serialize_graph,
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

    def test_treewidth_ceiling_is_a_domain_error(self, tmp_path, capsys):
        path = tmp_path / "p64.edges"
        path.write_text(serialize_graph(path_graph(64)))
        assert main(["bounds", str(path), "--tw-limit", "64"]) == 1
        assert "error: treewidth_exact limited to n <= 24, got 64" in capsys.readouterr().err

    def test_frieze_flag(self, p5_file, capsys):
        assert main(["bounds", p5_file, "--n", "100", "--c", "10.0"]) == 0
        assert "frieze_alpha 35.508" in capsys.readouterr().out

    def test_td_out(self, p5_file, tmp_path, capsys):
        td_path = tmp_path / "p5.td"
        assert main(["bounds", p5_file, "--td-out", str(td_path)]) == 0
        header = td_path.read_text().splitlines()[0]
        assert header == "5 1"


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

    def test_bad_n_list(self, capsys):
        rc = main(["experiment", "--n", "5;6", "--c", "2", "--trials", "1", "--seed", "1"])
        assert rc == 1


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
