"""Relation schemas: an ordered list of named, discrete attributes.

A :class:`Schema` is the shared vocabulary between the data layer, the
statistics layer, and the MaxEnt polynomial: attributes are addressed
by position (``0..m-1``) internally and by name at the API surface.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.data.domain import Domain
from repro.errors import ReproError, SchemaError


class Schema:
    """Ordered collection of attribute :class:`Domain` objects.

    Parameters
    ----------
    domains:
        One domain per attribute, in attribute order.  Domain names
        must be unique.
    """

    __slots__ = ("_domains", "_position")

    def __init__(self, domains: Sequence[Domain]) -> None:
        domains = list(domains)
        if not domains:
            raise SchemaError("a schema needs at least one attribute")
        position: dict[str, int] = {}
        for pos, domain in enumerate(domains):
            if domain.name in position:
                raise SchemaError(f"duplicate attribute name {domain.name!r}")
            position[domain.name] = pos
        self._domains = domains
        self._position = position

    @property
    def num_attributes(self) -> int:
        """``m`` in the paper."""
        return len(self._domains)

    @property
    def attribute_names(self) -> list[str]:
        return [domain.name for domain in self._domains]

    @property
    def domains(self) -> list[Domain]:
        return list(self._domains)

    def domain(self, attr) -> Domain:
        """Domain of an attribute given by name or position."""
        return self._domains[self.position(attr)]

    def position(self, attr) -> int:
        """Dense position of an attribute given by name or position."""
        if isinstance(attr, int):
            if not 0 <= attr < len(self._domains):
                raise SchemaError(
                    f"attribute position {attr} out of range "
                    f"(schema has {len(self._domains)} attributes)"
                )
            return attr
        try:
            return self._position[attr]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {attr!r}; schema has "
                f"{self.attribute_names}"
            ) from None

    def sizes(self) -> list[int]:
        """Domain sizes ``[N_1, ..., N_m]``."""
        return [domain.size for domain in self._domains]

    def num_possible_tuples(self) -> int:
        """``|Tup| = Π N_i`` — size of the full cross product."""
        return math.prod(domain.size for domain in self._domains)

    def project(self, attrs: Sequence) -> "Schema":
        """Schema restricted to the given attributes (order preserved
        as given)."""
        return Schema([self.domain(attr) for attr in attrs])

    def __contains__(self, name) -> bool:
        return name in self._position

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return self._domains == other._domains

    def __hash__(self):
        return hash(tuple(self._domains))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{domain.name}[{domain.size}]" for domain in self._domains
        )
        return f"Schema({parts})"


def require_widened_schema(old: Schema, new: Schema) -> None:
    """Raise unless ``new`` is ``old`` with zero or more labels appended
    to each domain (same attributes, same order, old labels kept as a
    prefix) — the only schema change the delta-refresh path supports."""
    if old.attribute_names != new.attribute_names:
        raise ReproError(
            "delta refresh cannot change the attribute set: summary has "
            f"{old.attribute_names}, relation has {new.attribute_names}"
        )
    for pos, (old_domain, new_domain) in enumerate(
        zip(old.domains, new.domains)
    ):
        if (
            new_domain.size < old_domain.size
            or new_domain.labels[: old_domain.size] != old_domain.labels
        ):
            raise ReproError(
                f"attribute {old.attribute_names[pos]!r}: delta refresh "
                "only supports appending new domain values; existing "
                "labels must keep their indices"
            )
