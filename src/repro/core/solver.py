"""Mirror Descent solver for the MaxEnt model (Sec 3.3, Algorithm 1).

Each step picks one variable ``α_j`` and solves ``∂Ψ/∂α_j = 0`` in
closed form while all other variables stay fixed (Eq. 12):

    α_j  =  s_j (P − α_j P_{α_j})  /  ((n − s_j) P_{α_j})

Because ``P`` is linear in every variable, neither ``P − α_j P_{α_j}``
nor ``P_{α_j}`` depends on ``α_j``, and — by overcompleteness — the
partials of two 1D variables of the *same* attribute are mutually
independent.  The solver exploits both facts:

* one gradient pass per attribute yields ``P_{α_j}`` for all of its
  values simultaneously (a difference-array accumulation over terms),
  after which the per-value updates run with ``P`` maintained
  incrementally;
* multi-dimensional variables go one *run* at a time — a stretch of
  consecutive statistics over one attribute set.  Such statistics are
  disjoint, so no term holds two of them and none of their partials
  depends on another's δ: one numpy pass over the run's terms yields
  every ``Q_{δ_j}``, after which the per-statistic updates run with the
  component value maintained incrementally, as in the 1D sweep.

A fit evaluates ``P`` from scratch once.  It keeps that one
:class:`~repro.core.polynomial.EvaluationParts` current and refreshes
only what moved, so every field stays bit-equal to a fresh pass:

* after an attribute's 1D update, that attribute's prefix and full sum,
  then its component's range sums, range product (left to right from
  all of its range sums, never divided) and value — or the free
  product — and ``P`` (``refresh_attribute``);
* after the δ sweep, every component's δ products and value, and ``P``
  (``refresh_deltas``); the range sums have not moved.

The residual check then reads those parts.  Its gradient of attribute 0
is the one the next sweep starts with, and the last run of each
component — the only run whose partials nothing after it moves — hands
its δ-sweep partials to the check.  Both stay in :meth:`solve`'s
locals: a standalone :meth:`~MirrorDescentSolver.max_constraint_error`
or :meth:`~MirrorDescentSolver.constraint_errors` evaluates its own
parameters from scratch.  The scalar Gauss–Seidel loops run over
Python floats (IEEE-identical to indexing ``np.float64`` elements) and
write each attribute's or run's values back once.

Statistics with ``s_j = 0`` pin their variable to exactly 0 — the
paper's ZERO-statistic observation (Sec 4.3) — and are never revisited.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from repro.core.polynomial import (
    CompressedPolynomial,
    check_parameter_shapes,
    initial_parameters,
)
from repro.core.variables import ModelParameters
from repro.errors import SolverError

#: Updates stop moving a variable when its partial is this small; the
#: monomials containing it have vanished (another variable is 0).
_TINY_GRADIENT = 1e-300


class SolverReport:
    """Convergence trace of one solve."""

    def __init__(self):
        self.iterations = 0
        self.converged = False
        self.error_trace: list[float] = []
        self.seconds = 0.0
        #: True when the solve started from a previous solution instead
        #: of the uniform model (the ingest layer's delta refits).
        self.warm_started = False

    @property
    def final_error(self) -> float:
        return self.error_trace[-1] if self.error_trace else float("inf")

    def __repr__(self):
        warm = ", warm_started=True" if self.warm_started else ""
        return (
            f"SolverReport(iterations={self.iterations}, "
            f"converged={self.converged}, final_error={self.final_error:.3g}, "
            f"seconds={self.seconds:.2f}{warm})"
        )


class MirrorDescentSolver:
    """Coordinate Mirror Descent over the compressed polynomial.

    Parameters
    ----------
    polynomial:
        The compressed polynomial built from the statistic set to fit.
    max_iterations:
        Sweep budget; the paper uses 30 (Sec 6.1).
    threshold:
        Convergence threshold on ``max_j |s_j − E[⟨c_j,I⟩]| / n``.
    """

    def __init__(
        self,
        polynomial: CompressedPolynomial,
        max_iterations: int = 30,
        threshold: float = 1e-6,
    ):
        if max_iterations < 1:
            raise SolverError("max_iterations must be >= 1")
        self.polynomial = polynomial
        self.statistic_set = polynomial.statistic_set
        self.max_iterations = max_iterations
        self.threshold = threshold

    # ------------------------------------------------------------------
    def solve(
        self,
        params: ModelParameters | None = None,
        callback: Callable[[int, float], None] | None = None,
    ) -> tuple[ModelParameters, SolverReport]:
        """Fit the model; returns the parameters and a report."""
        poly = self.polynomial
        warm_started = params is not None
        if params is None:
            params = initial_parameters(poly)
        else:
            params = params.copy()
            check_parameter_shapes(poly, params)

        report = SolverReport()
        report.warm_started = warm_started
        start = time.perf_counter()
        try:
            # The one evaluation state of this fit, kept current by the
            # sweeps; what the residual check hands the next sweep stays
            # in these locals.
            parts = poly.evaluation_parts(params)
            runs = poly.delta_runs
            gradient = None
            for iteration in range(self.max_iterations):
                self._sweep_one_dim(params, parts, gradient)
                known = self._sweep_multi_dim(params, parts, runs)
                poly.refresh_deltas(parts, params)
                one_dim, multi_dim, gradient = self._errors(parts, params, known)
                error = self._worst(one_dim, multi_dim)
                report.error_trace.append(error)
                report.iterations = iteration + 1
                if not math.isfinite(error):
                    raise SolverError(
                        f"constraint residual is {error} after sweep "
                        f"{iteration + 1}: the parameters are not finite",
                        report,
                    )
                if callback is not None:
                    callback(iteration, error)
                if error < self.threshold:
                    report.converged = True
                    break
        finally:
            report.seconds = time.perf_counter() - start
            for component in poly.components:
                component.release_plans()
        return params, report

    # ------------------------------------------------------------------
    def _sweep_one_dim(self, params: ModelParameters, parts, gradient) -> None:
        """One Gauss–Seidel pass over every attribute's α.  ``gradient``
        is attribute 0's, when the residual check already computed it on
        these parts; each attribute refreshes ``parts`` once it moved."""
        poly = self.polynomial
        total = self.statistic_set.total
        for pos, targets in enumerate(self.statistic_set.one_dim):
            if gradient is None:
                gradient = poly.masked_gradient(parts, params, {}, pos)
            value = parts.value
            alpha = params.alphas[pos].tolist()
            for index, (target, grad) in enumerate(zip(targets, gradient.tolist())):
                if target == 0.0:
                    value -= alpha[index] * grad
                    alpha[index] = 0.0
                    continue
                if grad <= _TINY_GRADIENT:
                    continue
                if target >= total:
                    # The value appears in every row; its siblings all
                    # have s = 0 and go to 0, which forces E = n.
                    continue
                rest = value - alpha[index] * grad
                if rest < 0.0:
                    rest = 0.0
                updated = target * rest / ((total - target) * grad)
                value = rest + updated * grad
                alpha[index] = updated
            if value <= 0.0:
                raise SolverError(
                    "polynomial collapsed to 0 during solving; statistics "
                    "are inconsistent with the cardinality"
                )
            params.alphas[pos][:] = alpha
            poly.refresh_attribute(parts, params, pos)
            gradient = None

    def _sweep_multi_dim(self, params: ModelParameters, parts, runs) -> dict:
        """One Gauss–Seidel pass over every δ, run by run, reading (not
        refreshing) ``parts``.  Returns the partials of each component's
        last run: nothing they read moves after them, so they are the
        residual check's own."""
        total = self.statistic_set.total
        component_values = list(parts.component_values)
        free_product = parts.free_product
        # Extended δ vector: the trailing sentinel slot keeps (δ−1) = 1
        # for the padding entries of the runs' index matrices.
        extended = np.append(params.deltas, 2.0)
        targets = [statistic.value for statistic in self.statistic_set.multi_dim]
        last = {}

        for index, run in runs:
            # Only this component's value moves within a run.
            outer = free_product
            for other_index, other_value in enumerate(component_values):
                if other_index != index:
                    outer *= other_value
            component_value = component_values[index]
            partials = run.partials(extended, parts.range_products[index])
            deltas = extended[run.start : run.stop].tolist()
            run_targets = targets[run.start : run.stop]
            for offset, (target, grad_q) in enumerate(zip(run_targets, partials)):
                grad = grad_q * outer
                old = deltas[offset]
                if target == 0.0:
                    updated = 0.0
                elif abs(grad) <= _TINY_GRADIENT or target >= total:
                    continue
                else:
                    rest = outer * component_value - old * grad
                    if rest < 0.0:
                        rest = 0.0
                    updated = target * rest / ((total - target) * grad)
                    if updated < 0.0:
                        updated = 0.0
                deltas[offset] = updated
                component_value += (updated - old) * grad_q
            extended[run.start : run.stop] = deltas
            component_values[index] = component_value
            last[index] = (run.start, partials)
        params.deltas[:] = extended[:-1]
        return dict(last.values())

    # ------------------------------------------------------------------
    def _errors(self, parts, params: ModelParameters, known=None):
        """``(one_dim, multi_dim, gradient)``: ``|s_j − E[⟨c_j, I⟩]|``
        of every statistic by family, and attribute 0's gradient (the
        first the next 1D sweep needs).  ``known`` holds δ-run partials
        already computed on these parts
        (:meth:`CompressedPolynomial.delta_gradients`)."""
        poly = self.polynomial
        total = self.statistic_set.total
        if parts.value <= 0:
            raise SolverError("polynomial evaluates to 0; model is degenerate")
        gradients = [
            poly.masked_gradient(parts, params, {}, pos)
            for pos in range(poly.schema.num_attributes)
        ]
        one_dim = [
            np.abs(total * alpha * gradient / parts.value - np.asarray(targets))
            for alpha, gradient, targets in zip(
                params.alphas, gradients, self.statistic_set.one_dim
            )
        ]
        multi_dim = np.empty(0)
        if poly.num_deltas:
            expected = poly.expected_multi_dim(parts, params, total, known)
            targets = [statistic.value for statistic in self.statistic_set.multi_dim]
            multi_dim = np.abs(expected - np.asarray(targets, dtype=float))
        return one_dim, multi_dim, gradients[0] if gradients else None

    def _worst(self, one_dim, multi_dim) -> float:
        # np.max, not max(): a NaN residual must come out as NaN.
        worst = [errors.max() for errors in one_dim]
        if multi_dim.size:
            worst.append(multi_dim.max())
        return float(np.max(worst)) / self.statistic_set.total

    def max_constraint_error(self, params: ModelParameters) -> float:
        """``max_j |s_j − E[⟨c_j,I⟩]| / n`` across all statistics."""
        parts = self.polynomial.evaluation_parts(params)
        one_dim, multi_dim, _ = self._errors(parts, params)
        return self._worst(one_dim, multi_dim)

    def constraint_errors(self, params: ModelParameters) -> dict:
        """Detailed per-family errors (used by diagnostics and tests)."""
        parts = self.polynomial.evaluation_parts(params)
        one_dim, multi_dim, _ = self._errors(parts, params)
        return {"one_dim": one_dim, "multi_dim": multi_dim}


def solve_statistics(
    polynomial: CompressedPolynomial,
    max_iterations: int = 30,
    threshold: float = 1e-6,
    callback: Callable[[int, float], None] | None = None,
) -> tuple[ModelParameters, SolverReport]:
    """Convenience wrapper: fit a polynomial's statistic set."""
    solver = MirrorDescentSolver(
        polynomial, max_iterations=max_iterations, threshold=threshold
    )
    return solver.solve(callback=callback)
