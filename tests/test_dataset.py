import csv
import math

import numpy as np
import pytest

from mixbn.dataset import (
    CATEGORICAL,
    CONTINUOUS,
    ColumnSchema,
    Dataset,
    load_csv,
    normalize_ranges,
    quantile_discretize,
    schema_from_json,
    select_rows,
)
from mixbn.errors import DatasetError
from mixbn.parameters import fit_cpt
from mixbn.structure import hill_climb, k2_family_score


def make(columns, rows):
    return Dataset(tuple(ColumnSchema(n, k) for n, k in columns), tuple(rows))


AB = [("A", CATEGORICAL), ("B", CONTINUOUS)]


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("A,B\nx,1.5\n")
        d = load_csv(str(p), [ColumnSchema("A", CATEGORICAL), ColumnSchema("B", CONTINUOUS)])
        assert d.n_rows == 1
        assert d.rows[0] == ("x", 1.5)

    def test_empty_cell_is_missing(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("A,B\nx,\nNA,2.0\n")
        d = load_csv(str(p), [ColumnSchema("A", CATEGORICAL), ColumnSchema("B", CONTINUOUS)])
        assert d.rows[0] == ("x", None)
        assert d.rows[1] == (None, 2.0)

    def test_bad_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("A,B\nx,abc\n")
        with pytest.raises(DatasetError, match="row 1.*'B'"):
            load_csv(str(p), [ColumnSchema("A", CATEGORICAL), ColumnSchema("B", CONTINUOUS)])

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("A,C\nx,1\n")
        with pytest.raises(DatasetError, match="header mismatch"):
            load_csv(str(p), [ColumnSchema("A", CATEGORICAL), ColumnSchema("B", CONTINUOUS)])

    def test_duplicate_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("A,A\nx,y\n")
        with pytest.raises(DatasetError, match="duplicate"):
            load_csv(str(p), [ColumnSchema("A", CATEGORICAL)])

    def test_column_order_may_differ(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("B,A\n1.5,x\n")
        d = load_csv(str(p), [ColumnSchema("A", CATEGORICAL), ColumnSchema("B", CONTINUOUS)])
        assert d.rows[0] == ("x", 1.5)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet programs save "CSV UTF-8" with a BOM before the first header name
        p = tmp_path / "d.csv"
        p.write_bytes(b"\xef\xbb\xbfA,B\nx,1.5\n")
        d = load_csv(str(p), [ColumnSchema("A", CATEGORICAL), ColumnSchema("B", CONTINUOUS)])
        assert d.names == ["A", "B"] and d.rows[0] == ("x", 1.5)


class TestDatasetInvariants:
    def test_type_discipline(self):
        with pytest.raises(DatasetError):
            make(AB, [(1.0, 2.0)])
        with pytest.raises(DatasetError):
            make(AB, [("x", "y")])

    def test_non_finite_rejected(self):
        with pytest.raises(DatasetError):
            make(AB, [("x", float("nan"))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(DatasetError):
            make([("A", CATEGORICAL), ("A", CONTINUOUS)], [])

    def test_schema_json(self):
        cols = schema_from_json(
            {"columns": [{"name": "A", "kind": "categorical"}, {"name": "B", "kind": "continuous"}]}
        )
        assert [c.name for c in cols] == ["A", "B"]
        with pytest.raises(DatasetError):
            schema_from_json({})

    def test_column_reads_the_cells_of_the_rows(self):
        d = make(AB + [("C", CONTINUOUS)],
                 [("x", 1.5, None), (None, -2.0, 0.0), ("y", None, 3), (None, None, None), ("x", 0.0, 1e300)])
        for j, name in enumerate(d.names):
            cells = d.column(name)
            assert cells == [r[j] for r in d.rows]
            assert [type(v) for v in cells] == [type(r[j]) for r in d.rows]


def _load_text(text):
    def load(tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(text)
        return load_csv(str(p), [ColumnSchema(n, k) for n, k in AB])
    return load


BAD_INPUT = {
    "unknown column kind": (lambda tmp_path: ColumnSchema("A", "ordinal"), "unknown column kind"),
    "row of the wrong length": (lambda tmp_path: make(AB, [("x",)]), "row 0 has 1 values, expected 2"),
    "unknown column name": (lambda tmp_path: make(AB, [("x", 1.0)]).kind("Z"), "unknown column 'Z'"),
    "empty CSV file": (_load_text(""), "empty file"),
    "CSV row with the wrong cell count": (_load_text("A,B\nx,1\ny\n"), "row 2 has 1 cells, expected 2"),
    "CSV cell past the field size limit": (
        _load_text("A,B\nx,1\n" + "y" * (csv.field_size_limit() + 1) + ",2\n"), "d.csv: line 3: field larger"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_raises_a_dataset_error(tmp_path, case):
    build, message = BAD_INPUT[case]
    with pytest.raises(DatasetError, match=message):
        build(tmp_path)


class TestQuantileDiscretize:
    def test_median_split(self):
        d = make([("B", CONTINUOUS)], [(v,) for v in [1.0, 2.0, 3.0, 4.0]])
        dd, edges = quantile_discretize(d, 2)
        assert [r[0] for r in dd.rows] == ["0", "0", "1", "1"]
        assert edges["B"] == (2.0,)

    def test_degenerate_constant_column(self):
        d = make([("B", CONTINUOUS)], [(5.0,)] * 4)
        dd, _ = quantile_discretize(d, 2)
        assert {r[0] for r in dd.rows} == {"0"}

    def test_balanced_bins_against_sorting_oracle(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(1000)
        d = make([("B", CONTINUOUS)], [(float(v),) for v in values])
        dd, _ = quantile_discretize(d, 5)
        counts = {}
        for (lab,) in dd.rows:
            counts[lab] = counts.get(lab, 0) + 1
        # oracle: sorted fifths
        assert sorted(counts) == ["0", "1", "2", "3", "4"]
        for c in counts.values():
            assert abs(c - 200) <= 1

    def test_missing_stays_missing_and_categorical_untouched(self):
        d = make(AB, [("x", 1.0), ("y", None), ("x", 2.0)])
        dd, _ = quantile_discretize(d, 2)
        assert dd.rows[1] == ("y", None)
        assert dd.kind("A") == CATEGORICAL

    def test_too_few_values(self):
        d = make([("B", CONTINUOUS)], [(1.0,), (None,)])
        dd, edges = quantile_discretize(d, 2)
        assert dd.rows == (("0",), (None,))
        assert edges == {"B": (1.0,)}
        with pytest.raises(DatasetError):
            quantile_discretize(d, 1)
        with pytest.raises(DatasetError):
            quantile_discretize(make([("B", CONTINUOUS)], [(None,), (None,)]), 2)

    def test_monotone_and_count_preserving(self):
        rng = np.random.default_rng(3)
        vals = [float(v) for v in rng.uniform(-5, 5, 200)] + [None] * 20
        rng.shuffle(vals)
        d = make([("B", CONTINUOUS)], [(v,) for v in vals])
        dd, dmap = quantile_discretize(d, 4)
        pairs = [(v, int(lab)) for v, (lab,) in zip(vals, dd.rows) if v is not None]
        for (u, bu) in pairs:
            for (v, bv) in pairs:
                if u <= v:
                    assert bu <= bv
        assert sum(1 for v, _ in pairs) == sum(1 for (lab,) in dd.rows if lab is not None)


class TestNormalizeRanges:
    def test_basic(self):
        d = make([("B", CONTINUOUS)], [(2.0,), (4.0,), (10.0,)])
        assert normalize_ranges(d) == {"B": (2.0, 10.0)}

    def test_all_missing_flagged(self):
        d = make([("B", CONTINUOUS)], [(None,), (None,)])
        assert normalize_ranges(d) == {"B": None}

    def test_constant_column(self):
        d = make([("B", CONTINUOUS)], [(3.0,), (3.0,)])
        assert normalize_ranges(d) == {"B": (3.0, 3.0)}


class TestSelectRows:
    def test_order_preserved(self):
        d = make(AB, [("a", 1.0), ("b", 2.0), ("c", 3.0)])
        s = select_rows(d, [2, 0])
        assert s.rows == (("c", 3.0), ("a", 1.0))

    def test_empty_selection(self):
        d = make(AB, [("a", 1.0)])
        s = select_rows(d, [])
        assert s.n_rows == 0
        assert s.schema == d.schema

    def test_out_of_range(self):
        d = make(AB, [("a", 1.0)] * 3)
        with pytest.raises(DatasetError):
            select_rows(d, [5])

    def test_subset_behaves_like_the_same_rows_built_fresh(self):
        schema = (ColumnSchema("K", CATEGORICAL), ColumnSchema("L", CATEGORICAL),
                  ColumnSchema("V", CONTINUOUS))
        v_cycle = [1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 5.0]
        rows = [("abc"[i % 3], "xy"[i % 5 % 2], v_cycle[i % 8]) for i in range(72)]
        keep = [i for i, r in enumerate(rows) if r[0] != "c"]
        sub = select_rows(make([(c.name, c.kind) for c in schema], rows), keep)
        fresh = Dataset(schema, [rows[i] for i in keep])
        assert sub.rows == fresh.rows
        dsub, edges = quantile_discretize(sub, 4)
        dfresh, _ = quantile_discretize(fresh, 4)
        # the last edge is the column maximum, so the top bin "3" is empty
        assert edges["V"][-1] == 5.0
        assert {r[2] for r in dsub.rows} == {"0", "1", "2"}
        for child, parents in (("K", []), ("K", ["L", "V"]), ("V", ["K"]), ("L", ["V"])):
            assert k2_family_score(dsub, child, parents) == k2_family_score(dfresh, child, parents)
            assert fit_cpt(dsub, child, parents) == fit_cpt(dfresh, child, parents)
        assert fit_cpt(sub, "K", ["L"]).states == ("a", "b")
        assert fit_cpt(dsub, "V", ["K"]).states == ("0", "1", "2")
        # K2 counts two states for K: the label "c" left the table with its rows
        n_a, n_b = sum(rows[i][0] == "a" for i in keep), sum(rows[i][0] == "b" for i in keep)
        expected = math.lgamma(2) - math.lgamma(n_a + n_b + 2) + math.lgamma(n_a + 1) + math.lgamma(n_b + 1)
        assert k2_family_score(dsub, "K", []) == pytest.approx(expected, abs=1e-9)
        assert hill_climb(dsub) == hill_climb(dfresh)
