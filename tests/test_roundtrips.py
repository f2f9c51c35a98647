"""Serializing and then parsing gives back the input, for every text format:
graphs, divisors, firing scripts, certificates, tree decompositions and
experiment CSV rows; and every reader refuses an integer token that
``str(int)`` never writes."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from gonality import (
    Divisor,
    EdgeCountError,
    FiringScript,
    GonalityError,
    MalformedHeaderError,
    PositiveRankCertificate,
    TreeDecomposition,
    TrialRecord,
    build_graph,
    parse_certificate,
    parse_divisor,
    parse_firing_script,
    parse_graph,
    parse_tree_decomposition,
    read_records_csv,
    serialize_certificate,
    serialize_divisor,
    serialize_firing_script,
    serialize_graph,
    serialize_tree_decomposition,
    write_records_csv,
)
from gonality.cli import main
from gonality.experiments import MODES

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

chip_vectors = st.lists(st.integers(-10**6, 10**6), max_size=12).map(tuple)


@PROPERTY
@given(st.data())
def test_graph(data):
    n = data.draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, k in zip(pairs, keep) if k])
    assert parse_graph(serialize_graph(g)) == g


@PROPERTY
@given(chip_vectors)
def test_divisor(chips):
    div = Divisor(chips)
    assert parse_divisor(serialize_divisor(div), len(chips)) == div


@PROPERTY
@given(chip_vectors)
def test_firing_script(fires):
    script = FiringScript(fires)
    assert parse_firing_script(serialize_firing_script(script), len(fires)) == script


@PROPERTY
@given(st.data())
def test_certificate(data):
    # the format is checked, not the firing arithmetic, so any integers do
    n = data.draw(st.integers(1, 8))
    row = st.lists(st.integers(-50, 50), min_size=n, max_size=n).map(tuple)
    cert = PositiveRankCertificate(
        Divisor(data.draw(row)),
        tuple(FiringScript(data.draw(row)) for _ in range(n)),
    )
    assert parse_certificate(serialize_certificate(cert), n) == cert


@PROPERTY
@given(st.data())
def test_tree_decomposition(data):
    # k bags (empty ones included) and the k - 1 tree edges the format holds
    k = data.draw(st.integers(0, 6))
    bags = tuple(data.draw(st.frozensets(st.integers(-3, 20), max_size=6)) for _ in range(k))
    index = st.integers(-2, k + 1)
    edges = tuple(data.draw(st.tuples(index, index)) for _ in range(max(k - 1, 0)))
    td = TreeDecomposition(bags, edges)
    assert parse_tree_decomposition(serialize_tree_decomposition(td)) == td


ints = st.integers()
reals = st.floats(allow_nan=False, allow_infinity=False)
# timings are written with three decimals, so draw whole microseconds
millis = st.none() | st.integers(0, 10**9).map(lambda k: k / 1000)
records = st.builds(
    TrialRecord,
    n=ints, c=reals, p=reals, trial=ints, seed=ints, connected=st.booleans(),
    genus=ints, alpha=ints, alpha_exact=st.booleans(), tw_lb=ints,
    tw_exact=st.none() | ints, gon_lb=ints, gon_ub=ints, gon_exact=st.none() | ints,
    mode=st.sampled_from(MODES), ms_alpha=millis, ms_tw=millis, ms_gon=millis,
)


@PROPERTY
@given(st.lists(records, max_size=5))
def test_experiment_csv_rows(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_records_csv(rows, path)
        assert read_records_csv(path) == rows


# tokens that no writer here writes; int() alone reads all but 6.0
_NOT_WRITTEN = {"1_0": "1_0", "+6": "+6", "06": "06", "-0": "-0", "arabic-indic-6": "\u0666", "6.0": "6.0"}
# past the digit limit of int() from Python 3.11 on; 3.10 reads it
_HUGE = "9" * 5000
_RECORD = TrialRecord(n=6, c=2.5, p=0.5, trial=0, seed=7, connected=True, genus=2, alpha=3, alpha_exact=True,
                      tw_lb=2, tw_exact=2, gon_lb=2, gon_ub=3, gon_exact=3, mode="exact")


def _console(*argv):
    """Run the CLI; an exit 1 with an ``error:`` line, its own or argparse's,
    is raised as a GonalityError carrying it.  Any exception that escapes
    ``main`` fails as an AssertionError, so a traceback never passes."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refused an option
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"main raised {exc!r}") from exc
    if code == 1 and "error: " in err.getvalue():
        raise GonalityError(err.getvalue())
    assert code == 0, err.getvalue()


def _csv_cell(tok, tmp):
    path = tmp / "rows.csv"
    write_records_csv([_RECORD], str(path))
    header, row = path.read_text().splitlines()
    path.write_text(f"{header}\n{tok},{row.split(',', 1)[1]}\n")
    try:
        return read_records_csv(str(path))
    except GonalityError as exc:
        assert str(exc).startswith(f"{path}, line 2: "), exc
        raise


def _p7(tmp):
    path = tmp / "p7.edges"
    path.write_text("7 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n")
    return str(path)


def _experiment(**flags):
    """``experiment`` on one small sandwich trial, with ``flags`` in place of its own."""
    args = {"--n": "6", "--c": "2", "--trials": "1", "--seed": "1", "--mode": "sandwich", **flags}
    _console("experiment", *(a for kv in args.items() for a in kv))


# each position that reads an integer, called with the token, and its error
_SITES = {
    "graph header": (lambda tok, tmp: parse_graph(f"{tok} 0\n"), MalformedHeaderError),
    "edge line": (lambda tok, tmp: parse_graph(f"7 1\n0 {tok}\n"), EdgeCountError),
    "divisor": (lambda tok, tmp: parse_divisor(f"0 {tok} -1"), GonalityError),
    "firing script": (lambda tok, tmp: parse_firing_script(f"{tok} 0", 2), GonalityError),
    "certificate line": (lambda tok, tmp: parse_certificate(f"1 1\n0 0\n0 {tok}\n", 2), GonalityError),
    "tree decomposition header": (lambda tok, tmp: parse_tree_decomposition(f"1 {tok}\n0 1 2 3 4 5 6\n"),
                                  MalformedHeaderError),
    "bag line": (lambda tok, tmp: parse_tree_decomposition(f"1 0\n{tok}\n"), EdgeCountError),
    "tree-edge line": (lambda tok, tmp: parse_tree_decomposition(f"2 0\n0\n1\n0 {tok}\n"), EdgeCountError),
    "csv integer cell": (_csv_cell, GonalityError),
    "reduce --divisor": (lambda tok, tmp: _console("reduce", _p7(tmp), "--divisor", f"{tok} 0 -1 0 0 0 0"),
                         GonalityError),
    "experiment --n": (lambda tok, tmp: _experiment(**{"--n": f"6,{tok}"}), GonalityError),
    # the integer options, which argparse refuses with exit 1
    "gonality --budget": (lambda tok, tmp: _console("gonality", _p7(tmp), "--budget", tok), GonalityError),
    "reduce --base": (lambda tok, tmp: _console("reduce", _p7(tmp), "--divisor", "1 0 -1 0 0 0 0", "--base", tok),
                      GonalityError),
    "bounds --budget": (lambda tok, tmp: _console("bounds", _p7(tmp), "--budget", tok), GonalityError),
    "bounds --tw-limit": (lambda tok, tmp: _console("bounds", _p7(tmp), "--tw-limit", tok), GonalityError),
    "sample --n": (lambda tok, tmp: _console("sample", "--n", tok, "--c", "2", "--seed", "1"), GonalityError),
    "sample --seed": (lambda tok, tmp: _console("sample", "--n", "6", "--c", "2", "--seed", tok), GonalityError),
    "experiment --trials": (lambda tok, tmp: _experiment(**{"--trials": tok}), GonalityError),
    "experiment --seed": (lambda tok, tmp: _experiment(**{"--seed": tok}), GonalityError),
    "experiment --budget": (lambda tok, tmp: _experiment(**{"--budget": tok}), GonalityError),
    "experiment --threads": (lambda tok, tmp: _experiment(**{"--threads": tok}), GonalityError),
}


@pytest.mark.parametrize("site", list(_SITES))
def test_reader_takes_the_token_str_int_writes(site, tmp_path):
    _SITES[site][0]("6", tmp_path)


@pytest.mark.parametrize("tok", list(_NOT_WRITTEN.values()), ids=list(_NOT_WRITTEN))
@pytest.mark.parametrize("site", list(_SITES))
def test_reader_refuses_a_token_str_int_never_writes(site, tok, tmp_path):
    call, error = _SITES[site]
    with pytest.raises(error):
        call(tok, tmp_path)


# Python 3.10 reads the token, and would run that many trials
@pytest.mark.parametrize("site", [s for s in _SITES if s != "experiment --trials"])
def test_token_past_the_digit_limit_is_never_a_bare_value_error(site, tmp_path):
    call, error = _SITES[site]
    try:
        int(_HUGE)
    except ValueError:  # Python 3.11 on: the reader must refuse it as the site does
        with pytest.raises(error):
            call(_HUGE, tmp_path)
        return
    try:  # Python 3.10 reads it, and a later check may refuse the value
        call(_HUGE, tmp_path)
    except GonalityError:
        pass
