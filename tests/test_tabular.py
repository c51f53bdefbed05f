"""File formats: matrices, outcomes, configs, atomic writes."""

import multiprocessing
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_read_matrix,
    reference_write_outcome,
    reference_write_rows,
)
from ratiomarker import composition, parallel
from ratiomarker.composition import StrictlyPositiveMatrix
from ratiomarker.errors import ParseError, ValidationError
from ratiomarker.tabular import (
    atomic_write_text,
    infer_outcome_kind,
    outcome_for_matrix,
    read_config,
    read_matrix,
    read_outcome_pairs,
    write_config,
    write_matrix,
    write_outcome,
    write_rows,
    write_table,
)


def small_matrix():
    rng = np.random.default_rng(11)
    vals = np.exp(rng.normal(0.0, 1.0, (4, 3)))
    return StrictlyPositiveMatrix(
        vals, ["s1", "s2", "s3", "s4"], ["fa", "fb", "fc"]
    )


class TestMatrixRoundTrip:
    def test_values_and_ids_survive(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "m.tsv"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.sample_ids == m.sample_ids
        assert back.feature_ids == m.feature_ids
        np.testing.assert_array_equal(back.values, m.values)

    def test_repr_floats_round_trip_exactly(self, tmp_path):
        # repr of a float parses back to the identical bits, so a write and
        # re-read must be lossless, not merely close.
        vals = np.array([[0.1, 1.0 / 3.0], [np.pi, 2.0 ** -40]])
        m = StrictlyPositiveMatrix(vals, ["a", "b"], ["x", "y"])
        path = tmp_path / "m.tsv"
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(back.values, vals)

    def test_comma_delimited_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,x,y\ns1,1.0,2.0\ns2,3.0,4.0\n")
        m = read_matrix(path)
        assert m.feature_ids == ["x", "y"]
        np.testing.assert_array_equal(m.values, [[1.0, 2.0], [3.0, 4.0]])


class TestMatrixParseErrors:
    def test_bad_cell_reports_position(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("sample_id\tx\ty\ns1\t1.0\toops\n")
        with pytest.raises(ParseError) as exc:
            read_matrix(path)
        msg = str(exc.value)
        assert "row 2" in msg
        assert "column 3" in msg

    def test_negative_cell_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("sample_id\tx\ty\ns1\t1.0\t-2.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("sample_id\tx\ty\ns1\tnan\t2.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("sample_id\tx\ty\ns1\t1.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    @pytest.mark.parametrize(
        "cell, message", [("nan", "cell is NaN"), ("-1.5", "cell '-1.5' is negative")]
    )
    def test_bad_cell_before_a_ragged_row_is_named_first(self, tmp_path, cell, message):
        # The first pass stops at the ragged row 5; the rescan in reading
        # order must still name row 2's bad cell.
        path = tmp_path / "m.tsv"
        rows = [f"s1\t1.0\t{cell}", "s2\t1.0\t2.0", "s3\t3.0\t4.0", "s4\t5.0"]
        path.write_text("sample_id\tx\ty\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=message) as exc:
            read_matrix(path)
        assert (exc.value.row, exc.value.column) == (2, 3)

    def test_single_feature_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("sample_id\tx\ns1\t1.0\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_missing_file_is_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            read_matrix(tmp_path / "nope.tsv")


@pytest.mark.parametrize("reader", [read_matrix, read_outcome_pairs, read_config])
@pytest.mark.parametrize(
    "under_a_file, reason", [(False, "Is a directory"), (True, "Not a directory")]
)
def test_an_unreadable_path_is_a_validation_error(tmp_path, reader, under_a_file, reason):
    # Any OSError of a read names the path and its reason, as a write does.
    path = tmp_path
    if under_a_file:
        (tmp_path / "file").write_text("sample_id\tg1\tg2\ns1\t1\t2\n")
        path = tmp_path / "file" / "m.tsv"
    with pytest.raises(ValidationError, match=re.escape(f"cannot read {path}: {reason}")):
        reader(path)


class TestTabInCommaDelimitedCell:
    # A written table splits its cells at tabs, so such a cell would not
    # read back as one.
    @pytest.mark.parametrize(
        "text, row, column",
        [
            ("sample_id,x,y\ns1,1.0,2.0\ns\t2,3.0,4.0\n", 3, 1),
            ("sample_id,x,y\ns1,1.0,2.0\ns2,3.0,4.0\t\n", 3, 3),
            # A tab in the first row does not make the file tab-delimited.
            ("sample\tid,x,y\ns1,1.0,2.0\n", 1, 1),
            ("sample_id,x,y\t\ns1,1.0,2.0\ns2,3.0,4.0\n", 1, 3),
        ],
        ids=["sample-id", "value", "first-row-corner", "first-row-feature"],
    )
    def test_matrix_reader(self, tmp_path, text, row, column):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="tab in a cell") as exc:
            read_matrix(path)
        assert (exc.value.row, exc.value.column) == (row, column)

    @pytest.mark.parametrize(
        "text, row, column",
        [
            ("sample_id,y\ns1,0\ns\t2,1\n", 3, 1),
            ("s1,0.5\ns2,\t0.25\n", 2, 2),
            ("s\t1,0.5\ns2,0.25\n", 1, 1),
            ("sample\tid,y\ns1,0\ns2,1\n", 1, 1),
        ],
        ids=["sample-id", "value", "first-row", "header"],
    )
    def test_outcome_reader(self, tmp_path, text, row, column):
        path = tmp_path / "y.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="tab in a cell") as exc:
            read_outcome_pairs(path)
        assert (exc.value.row, exc.value.column) == (row, column)

    def test_comma_in_a_tab_delimited_cell_is_kept(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("s,1\t0.5\ns,2\t0.25\n")
        assert read_outcome_pairs(path)[0] == ["s,1", "s,2"]


# Cells that parse, cells each error names (NaN, infinite, negative, not a
# number) and cells that `float` reads in its own way: signed zero,
# overflow to inf, underscores, padding and a subnormal.
CELLS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(repr),
    st.sampled_from(
        [
            "0", "-0.0", "2.5", " 3.5 ", "1_0", "1e-320", "+7", "1e400", "-1e400",
            "inf", "-inf", "nan", "-nan", "NaN", "-1", "-1e-300", "abc", "", " ",
            "1__0", "0x10",
        ]
    ),
)


@st.composite
def matrix_texts(draw):
    """Matrix text of up to 6 rows, some cells bad and some rows ragged."""
    g = draw(st.integers(2, 4))
    lines = ["sample_id\t" + "\t".join(f"f{j}" for j in range(g))]
    for i in range(draw(st.integers(1, 6))):
        width = g + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
        cells = draw(st.lists(CELLS, min_size=width, max_size=width))
        lines.append("\t".join([f"s{i}", *cells]))
    return "\n".join(lines) + "\n"


class TestReadMatrixReference:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(matrix_texts())
    def test_equals_the_cell_by_cell_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("m") / "m.tsv"
        path.write_text(text)
        try:
            want = reference_read_matrix(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                read_matrix(path)
            assert str(got.value) == str(exc)
            assert (got.value.row, got.value.column) == (exc.row, exc.column)
            return
        got = read_matrix(path)
        assert got.sample_ids == want.sample_ids
        assert got.feature_ids == want.feature_ids
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()


class TestOutcomeIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "y.tsv"
        write_outcome(path, ["s1", "s2", "s3"], [0.0, 1.0, 1.0])
        ids, values = read_outcome_pairs(path)
        assert ids == ["s1", "s2", "s3"]
        np.testing.assert_array_equal(values, [0.0, 1.0, 1.0])

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("sample_id\toutcome\ns1\t0\ns2\t1\n")
        ids, values = read_outcome_pairs(path)
        assert ids == ["s1", "s2"]

    def test_negative_value_accepted(self, tmp_path):
        # A continuous outcome, such as a latent score, may be negative;
        # only matrix cells must not be.
        path = tmp_path / "y.tsv"
        path.write_text("s1\t-0.5\ns2\t-1e-300\n")
        ids, values = read_outcome_pairs(path)
        assert ids == ["s1", "s2"]
        assert values.tolist() == [-0.5, -1e-300]

    def test_nan_outcome_rejected(self, tmp_path):
        path = tmp_path / "y.tsv"
        path.write_text("s1\t0.5\ns2\tnan\n")
        with pytest.raises(ParseError):
            read_outcome_pairs(path)

    def test_kind_inference(self):
        assert infer_outcome_kind(np.array([0.0, 1.0, 0.0])) == "binary"
        assert infer_outcome_kind(np.array([0.0, 0.5])) == "continuous"

    def test_alignment_reorders_to_matrix(self):
        m = small_matrix()
        out = outcome_for_matrix(
            m, ["s4", "s2", "s1", "s3"], [1.0, 0.0, 1.0, 0.0]
        )
        # s1, s2, s3, s4 order.
        np.testing.assert_array_equal(out.values, [1.0, 0.0, 0.0, 1.0])

    def test_missing_sample_rejected(self):
        m = small_matrix()
        with pytest.raises(ValidationError):
            outcome_for_matrix(m, ["s1", "s2"], [0.0, 1.0])

    def test_extra_samples_ignored(self):
        m = small_matrix()
        out = outcome_for_matrix(
            m,
            ["s1", "s2", "s3", "s4", "s99"],
            [0.0, 1.0, 0.0, 1.0, 1.0],
        )
        assert out.n == 4


# Floats the line rule must write as the old writers did: specials, the
# smallest subnormal, the edges of repr's scientific notation and a sum
# that is not its shortest decimal.
EDGE_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2
]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
NUMBERS = st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(), st.booleans())
# Ids, names and notes: spaces and the empty string, never a tab or newline.
TEXTS = st.text(alphabet="ab z/_.-", max_size=8)


class TestLineRule:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        header=st.none() | st.lists(TEXTS, max_size=5),
        rows=st.lists(st.lists(st.one_of(NUMBERS, TEXTS), max_size=6), max_size=5),
    )
    def test_write_rows_equals_the_old_cli_writer(self, tmp_path_factory, header, rows):
        tmp = tmp_path_factory.mktemp("rows")
        write_rows(tmp / "got.tsv", header, iter(rows))
        old_header = None if header is None else "\t".join(header)
        reference_write_rows(tmp / "want.tsv", old_header, rows)
        assert (tmp / "got.tsv").read_bytes() == (tmp / "want.tsv").read_bytes()

    # At least one pair: the CLI never writes an empty outcome, and both
    # writers' empty files read as "file is empty".
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(TEXTS, NUMBERS), min_size=1, max_size=8))
    def test_write_outcome_equals_the_old_f_string(self, tmp_path_factory, pairs):
        tmp = tmp_path_factory.mktemp("outcome")
        ids = [s for s, _ in pairs]
        values = [v for _, v in pairs]
        write_outcome(tmp / "got.tsv", ids, values)
        reference_write_outcome(tmp / "want.tsv", ids, values)
        assert (tmp / "got.tsv").read_bytes() == (tmp / "want.tsv").read_bytes()

    def test_numpy_arrays_equal_their_elements(self, tmp_path):
        values = np.array([0.1 + 0.2, -0.0, 5e-324, 1e16, np.nan, -np.inf])
        got, want = tmp_path / "got.tsv", tmp_path / "want.tsv"
        write_outcome(got, ["a"] * 6, values)
        reference_write_outcome(want, ["a"] * 6, values.tolist())
        assert got.read_bytes() == want.read_bytes()


class TestConfigIo:
    def test_key_value_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# settings\nfolds = 5\n\nseed=3\n")
        assert read_config(path) == {"folds": "5", "seed": "3"}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        write_config(path, {"alpha": "0.05", "mode": "balance"})
        assert read_config(path) == {"alpha": "0.05", "mode": "balance"}

    def test_manifest_json_config_reused(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            '{"version": "0.1.0", "config": {"seed": 7, "mode": "slr"}}'
        )
        assert read_config(path) == {"seed": "7", "mode": "slr"}

    def test_bare_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed\n")
        with pytest.raises(ParseError):
            read_config(path)


class TestAtomicWrite:
    def test_no_temp_file_left(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrites_in_place(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert path.read_text() == "two\n"

    def test_concurrent_writes_to_one_path(self, tmp_path):
        # Each write has its own temp file, so overlapping writes neither
        # fail nor mix: the file holds exactly one writer's text.
        path = tmp_path / "out.txt"
        texts = [f"{i}\n" * 50_000 for i in range(4)]
        barrier = threading.Barrier(len(texts))
        errors = []

        def writer(text):
            try:
                barrier.wait(timeout=10)
                for _ in range(20):
                    atomic_write_text(path, text)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text() in texts
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "out.tsv"

        def row(i):
            if i == 1:
                raise RuntimeError("row source failed")
            return [1.0, 2.0]

        with pytest.raises(RuntimeError, match="row source failed"):
            write_table(path, ["a", "b"], ["x", "y"], row)
        assert list(tmp_path.iterdir()) == []

        # A pairwise table formatted by two workers, two rows a block, whose
        # row function fails in a worker: neither the temp file nor a worker
        # outlives the error.
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        monkeypatch.setattr(composition, "_BLOCK_ELEMENTS", 6)
        logs = np.log(small_matrix().values)
        jj, kk = np.triu_indices(3, k=1)

        def pairwise_row(i):
            if i == 3:
                raise RuntimeError("row 3 failed")
            return logs[i][jj] - logs[i][kk]

        with pytest.raises(RuntimeError, match="row 3 failed"):
            write_table(
                tmp_path / "pairwise.tsv", list("abcd"), ["x", "y", "z"], pairwise_row
            )
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestWriteTable:
    def test_rows_from_a_function_equal_the_array(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(0.0, 1.0, (4, 3))
        values[1, 2] = -0.0
        whole, rows = tmp_path / "whole.tsv", tmp_path / "rows.tsv"
        write_table(whole, list("abcd"), list("xyz"), values)
        write_table(rows, list("abcd"), list("xyz"), lambda i: values[i])
        assert rows.read_bytes() == whole.read_bytes()
        lines = whole.read_text().splitlines()
        assert lines[0] == "sample_id\tx\ty\tz"
        assert lines[2].split("\t")[1:] == [repr(float(v)) for v in values[1]]

    def test_every_form_and_block_size_writes_one_text(self, tmp_path, cpus, monkeypatch):
        rng = np.random.default_rng(6)
        values = rng.normal(0.0, 1.0, (7, 3))
        values[2, 1] = -0.0
        expected = "sample_id\tx\ty\tz\n" + "".join(
            "\t".join([rid, *(repr(float(v)) for v in row)]) + "\n"
            for rid, row in zip("abcdefg", values)
        )
        # A block of 21 values is the whole table; 6 values make blocks of
        # two rows, the last one short; 2 values is narrower than a row.
        for block_elements in (21, 6, 2):
            monkeypatch.setattr(composition, "_BLOCK_ELEMENTS", block_elements)
            for form in (values, lambda i: values[i]):
                path = tmp_path / "t.tsv"
                write_table(path, list("abcdefg"), list("xyz"), form)
                assert path.read_text() == expected

    def test_small_table_starts_no_process(self, tmp_path, monkeypatch, forbid_pool):
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 2)
        seen = []

        def row(i):
            seen.append((os.getpid(), multiprocessing.active_children()))
            return [float(i), 0.5]

        write_table(tmp_path / "t.tsv", list("abcd"), ["x", "y"], row)
        assert seen == [(os.getpid(), [])] * 4
