"""Failure-injection tests: corrupted persistence, degenerate models,
and infeasible inputs must fail loudly and precisely."""

import json

import numpy as np
import pytest

from repro.api import SummaryBuilder
from repro.core.inference import InferenceEngine
from repro.core.polynomial import CompressedPolynomial, initial_parameters
from repro.core.summary import EntropySummary
from repro.core.variables import ModelParameters
from repro.data.counts import Counts
from repro.data.domain import integer_domain
from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.errors import ReproError, SolverError
from repro.stats.statistic import StatisticSet


@pytest.fixture
def summary(tmp_path):
    schema = Schema([integer_domain("a", 3), integer_domain("b", 4)])
    rng = np.random.default_rng(8)
    relation = Relation(
        schema, [rng.integers(0, 3, 200), rng.integers(0, 4, 200)]
    )
    summary = SummaryBuilder(relation).iterations(20).fit()
    summary.save(tmp_path / "model")
    return summary, tmp_path / "model"


class TestCorruptedPersistence:
    def test_truncated_json(self, summary):
        _, prefix = summary
        text = prefix.with_suffix(".json").read_text()
        prefix.with_suffix(".json").write_text(text[: len(text) // 2])
        with pytest.raises(ReproError, match="model.json"):
            EntropySummary.load(prefix)

    def test_missing_npz(self, summary):
        _, prefix = summary
        prefix.with_suffix(".npz").unlink()
        with pytest.raises(FileNotFoundError):
            EntropySummary.load(prefix)

    def test_missing_alpha_array(self, summary, tmp_path):
        _, prefix = summary
        with np.load(prefix.with_suffix(".npz")) as arrays:
            kept = {
                key: arrays[key] for key in arrays.files if key != "alpha_1"
            }
        np.savez(prefix.with_suffix(".npz"), **kept)
        with pytest.raises(SolverError, match="alpha"):
            EntropySummary.load(prefix)

    def test_tampered_statistic_value(self, summary):
        original, prefix = summary
        document = json.loads(prefix.with_suffix(".json").read_text())
        document["one_dim"][0][0] = -5.0
        prefix.with_suffix(".json").write_text(json.dumps(document))
        with pytest.raises(ReproError):
            EntropySummary.load(prefix)

    def test_unknown_label_tag(self, summary):
        _, prefix = summary
        document = json.loads(prefix.with_suffix(".json").read_text())
        document["schema"][0]["labels"][0] = {"t": "alien", "v": 1}
        prefix.with_suffix(".json").write_text(json.dumps(document))
        with pytest.raises(ReproError, match="unknown label tag"):
            EntropySummary.load(prefix)


class TestDegenerateModels:
    def test_all_zero_parameters_rejected_by_engine(self):
        schema = Schema([integer_domain("a", 2), integer_domain("b", 2)])
        relation = Relation.from_rows(schema, [(0, 0), (1, 1)])
        statistic_set = StatisticSet.from_counts(Counts.of(relation))
        poly = CompressedPolynomial(statistic_set)
        params = ModelParameters(
            [np.zeros(2), np.zeros(2)], np.zeros(0)
        )
        with pytest.raises(SolverError, match="degenerate"):
            InferenceEngine(poly, params, 2)

    def test_negative_parameters_rejected(self):
        with pytest.raises(SolverError, match="non-negative"):
            ModelParameters([np.array([1.0, -0.1])], np.zeros(0))

    def test_inconsistent_statistics_surface_as_solver_error(self):
        """Statistics that contradict the cardinality collapse P to 0."""
        schema = Schema([integer_domain("a", 2), integer_domain("b", 2)])
        # n = 10 but attribute a claims all mass on value 0 while the 2D
        # statistic claims 10 rows at a = 1: infeasible.
        from repro.stats.statistic import range_statistic_2d

        statistic_set = StatisticSet(
            schema,
            10,
            [[10.0, 0.0], [5.0, 5.0]],
        )
        from repro.core.solver import MirrorDescentSolver

        statistic_set.multi_dim.append(
            range_statistic_2d(schema, "a", (1, 1), "b", (0, 1), 10.0)
        )
        poly = CompressedPolynomial(statistic_set)
        solver = MirrorDescentSolver(poly, max_iterations=20)
        params, report = solver.solve()
        # The solver cannot satisfy both; it must either flag failure
        # via the error trace or keep the model consistent (never
        # crash, never return a negative polynomial).
        assert report.final_error > 1e-3
        assert poly.evaluate(params) >= 0.0

    def test_uniform_init_evaluates_to_tuple_count(self):
        schema = Schema([integer_domain("a", 3), integer_domain("b", 5)])
        relation = Relation.from_rows(schema, [(0, 0)] * 5)
        statistic_set = StatisticSet.from_counts(Counts.of(relation))
        poly = CompressedPolynomial(statistic_set)
        assert poly.evaluate(initial_parameters(poly)) == pytest.approx(15.0)
