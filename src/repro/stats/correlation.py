"""Attribute correlation measures for statistic selection (Sec 4.3).

The paper checks "the chi-squared coefficient" to decide whether a pair
is worth a 2D statistic and ranks pairs by correlation strength.  We
implement the chi-squared statistic and its normalized form, Cramér's
V, which is comparable across pairs with different domain sizes.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.data.relation import Relation


def chi_squared(table: np.ndarray) -> float:
    """Pearson chi-squared statistic of a contingency table.

    Cells whose expected count is zero (an empty marginal row/column)
    contribute nothing.
    """
    table = np.asarray(table, dtype=float)
    total = table.sum()
    if total <= 0:
        return 0.0
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / total
    mask = expected > 0
    diff = table[mask] - expected[mask]
    return float((diff * diff / expected[mask]).sum())


def cramers_v(table: np.ndarray, bias_corrected: bool = True) -> float:
    """Cramér's V in ``[0, 1]``; 0 = independent, 1 = perfectly
    associated.

    With ``bias_corrected`` (the default) the Bergsma small-sample
    correction is applied: under independence the raw statistic has
    expectation ``≈ sqrt(df / (n·(k−1)))``, which for wide tables (e.g.
    307×54) swamps genuine weak associations; the correction subtracts
    that floor so independent pairs score ≈ 0.
    """
    table = np.asarray(table, dtype=float)
    total = table.sum()
    if total <= 0:
        return 0.0
    # Drop empty rows/columns: they carry no association information
    # and would inflate the normalizing dimension.
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    rows, cols = table.shape
    if min(rows, cols) < 2:
        return 0.0
    chi2 = chi_squared(table)
    if not bias_corrected:
        return float(np.sqrt(chi2 / (total * (min(rows, cols) - 1))))
    phi2 = chi2 / total
    phi2_corrected = max(0.0, phi2 - (rows - 1) * (cols - 1) / (total - 1))
    rows_corrected = rows - (rows - 1) ** 2 / (total - 1)
    cols_corrected = cols - (cols - 1) ** 2 / (total - 1)
    k = min(rows_corrected, cols_corrected) - 1.0
    if k <= 0:
        return 0.0
    return float(np.sqrt(phi2_corrected / k))


def pair_correlations(
    relation: Relation, attrs: list | None = None
) -> list[tuple[tuple[int, int], float]]:
    """Cramér's V for every attribute pair, sorted most-correlated first.

    Parameters
    ----------
    relation:
        The data: a relation, or its
        :class:`~repro.data.counts.Counts` holding every pair's table.
    attrs:
        Optional subset of attributes (names or positions) to restrict
        the pair enumeration to.

    Returns
    -------
    list of ``((pos_a, pos_b), v)`` with ``pos_a < pos_b``.
    """
    schema = relation.schema
    if attrs is None:
        positions = list(range(schema.num_attributes))
    else:
        positions = sorted({schema.position(attr) for attr in attrs})
    scored = []
    for pos_a, pos_b in itertools.combinations(positions, 2):
        table = relation.contingency(pos_a, pos_b)
        scored.append(((pos_a, pos_b), cramers_v(table)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def is_nearly_uniform_pair(table: np.ndarray, threshold: float = 0.05) -> bool:
    """Paper's footnote-5 check: a pair is "uniform" (not worth a 2D
    statistic) when its chi-squared coefficient is close to 0.  We use
    Cramér's V below ``threshold`` as the scale-free version."""
    return cramers_v(table) < threshold
