"""Active domains of attributes.

The MaxEnt model of the paper (Sec 3.1) treats every attribute as
discrete and ordered.  A :class:`Domain` maps between *labels* (what the
user sees: state codes, bucket intervals, ...) and dense integer
*indices* ``0..size-1`` (what the polynomial machinery uses).

Continuous attributes are supported through bucketization
(:mod:`repro.data.binning`); the resulting :class:`Domain` stores one
label per bucket.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import DomainError


class Domain:
    """An ordered active domain for one attribute.

    Parameters
    ----------
    name:
        Attribute name this domain belongs to.
    labels:
        Ordered sequence of distinct, hashable labels.  Position in the
        sequence is the integer index used throughout the model.
    """

    __slots__ = ("name", "_labels", "_index", "_numeric_weights", "_lookup")

    def __init__(self, name: str, labels: Sequence) -> None:
        labels = list(labels)
        if not labels:
            raise DomainError(f"domain {name!r} must have at least one value")
        index = {}
        for pos, label in enumerate(labels):
            if label in index:
                raise DomainError(
                    f"domain {name!r} has duplicate label {label!r}"
                )
            index[label] = pos
        self.name = name
        self._labels = labels
        self._index = index
        #: Filled by ``repro.query.linear.numeric_weights`` on first use
        #: (labels never change, so neither does the SUM/AVG vector).
        self._numeric_weights = None
        #: Filled by ``repro.query.linear.label_table`` on first use: the
        #: bounds and keys WHERE conditions bisect (never saved).
        self._lookup = None

    @property
    def size(self) -> int:
        """Number of distinct values (``N_i`` in the paper)."""
        return len(self._labels)

    @property
    def labels(self) -> list:
        """All labels in index order (a copy; mutating it is safe)."""
        return list(self._labels)

    def index_of(self, label) -> int:
        """Return the dense index of ``label``.

        Raises :class:`DomainError` when the label is not part of the
        active domain.
        """
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(
                f"value {label!r} is not in the active domain of "
                f"attribute {self.name!r}"
            ) from None

    def __contains__(self, label) -> bool:
        return label in self._index

    def label_of(self, index: int) -> object:
        """Return the label stored at ``index``."""
        if not 0 <= index < len(self._labels):
            raise DomainError(
                f"index {index} out of range for domain {self.name!r} "
                f"of size {self.size}"
            )
        return self._labels[index]

    def indices_of(self, labels: Iterable) -> list[int]:
        """Map an iterable of labels to their indices, preserving order."""
        return [self.index_of(label) for label in labels]

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self.name == other.name and self._labels == other._labels

    def __hash__(self):
        return hash((self.name, tuple(self._labels)))

    def __repr__(self) -> str:
        preview = ", ".join(repr(label) for label in self._labels[:4])
        if self.size > 4:
            preview += ", ..."
        return f"Domain({self.name!r}, size={self.size}, [{preview}])"


def integer_domain(name: str, size: int) -> Domain:
    """Build a domain whose labels are the integers ``0..size-1``.

    Convenient for synthetic data and for tests where the labels carry
    no meaning beyond their order.
    """
    if size <= 0:
        raise DomainError(f"domain {name!r} must have positive size, got {size}")
    return Domain(name, range(size))
