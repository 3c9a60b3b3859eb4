"""Tests for the CSV loading pipeline."""

import pytest

from repro.data.binning import Bucket
from repro.data.loaders import (
    CategoricalColumn,
    GroupedColumn,
    NumericColumn,
    load_csv,
)
from repro.errors import DomainError, SchemaError

CSV = """state,city,distance,delay
WA,Seattle,120.5,3
WA,Seattle,130.0,5
WA,Spokane,300.0,
CA,LA,90.0,1
CA,LA,95.5,2
CA,SF,110.0,4
CA,Fresno,700.0,9
NY,NYC,450.0,2
"""


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "flights.csv"
    path.write_text(CSV)
    return path


class TestLoadCsv:
    def test_categorical_and_numeric(self, csv_path):
        relation = load_csv(
            csv_path,
            [
                CategoricalColumn("state"),
                NumericColumn("distance", num_buckets=4),
            ],
        )
        assert relation.schema.attribute_names == ["state", "distance"]
        assert relation.num_rows == 8
        assert relation.schema.domain("state").labels == ["CA", "NY", "WA"]
        assert all(
            isinstance(label, Bucket)
            for label in relation.schema.domain("distance").labels
        )

    def test_null_rows_dropped(self, csv_path):
        relation = load_csv(
            csv_path,
            [CategoricalColumn("state"), NumericColumn("delay", num_buckets=3)],
        )
        # The Spokane row has an empty delay cell.
        assert relation.num_rows == 7

    def test_grouped_column(self, csv_path):
        relation = load_csv(
            csv_path,
            [GroupedColumn("city", group_column="state", k=1)],
        )
        labels = relation.schema.domain("city").labels
        assert ("WA", "Seattle") in labels
        assert ("WA", "Other") in labels
        assert ("CA", "LA") in labels
        # SF and Fresno fold into CA/Other.
        counts = relation.marginal("city")
        other_index = relation.schema.domain("city").index_of(("CA", "Other"))
        assert counts[other_index] == 2

    def test_appearance_order_labels(self, csv_path):
        relation = load_csv(
            csv_path, [CategoricalColumn("state", sort_labels=False)]
        )
        assert relation.schema.domain("state").labels == ["WA", "CA", "NY"]

    def test_max_rows(self, csv_path):
        relation = load_csv(
            csv_path, [CategoricalColumn("state")], max_rows=3
        )
        assert relation.num_rows == 3

    def test_explicit_numeric_range(self, csv_path):
        relation = load_csv(
            csv_path,
            [NumericColumn("distance", num_buckets=10, low=0.0, high=1000.0)],
        )
        domain = relation.schema.domain("distance")
        assert domain.label_of(0).low == 0.0
        assert domain.label_of(9).high == 1000.0

    def test_missing_column(self, csv_path):
        with pytest.raises(SchemaError, match="missing columns"):
            load_csv(csv_path, [CategoricalColumn("airline")])

    def test_non_numeric_value(self, csv_path):
        with pytest.raises(DomainError, match="non-numeric"):
            load_csv(csv_path, [NumericColumn("city", num_buckets=3)])

    def test_empty_specs(self, csv_path):
        with pytest.raises(SchemaError):
            load_csv(csv_path, [])

    def test_all_rows_null(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n,1\n,2\n")
        with pytest.raises(SchemaError, match="no complete rows"):
            load_csv(path, [CategoricalColumn("a")])

    def test_end_to_end_summary(self, csv_path):
        """CSV → relation → summary → query."""
        from repro.api import Explorer, SummaryBuilder
        from repro.query import SummaryBackend

        relation = load_csv(
            csv_path,
            [
                CategoricalColumn("state"),
                NumericColumn("distance", num_buckets=4),
            ],
        )
        summary = SummaryBuilder(relation).iterations(30).fit()
        engine = Explorer(SummaryBackend(summary))
        estimate = engine.count("SELECT COUNT(*) FROM R WHERE state = 'CA'")
        assert estimate == pytest.approx(4.0, abs=0.2)
