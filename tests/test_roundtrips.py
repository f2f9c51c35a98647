"""Serializing and then parsing gives back the input, for every text format:
graphs, divisors, firing scripts, certificates, tree decompositions and
experiment CSV rows."""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from gonality import (
    Divisor,
    FiringScript,
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
