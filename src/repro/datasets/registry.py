"""Domain registry: one entry per Table 6 row, in the paper's order."""

from __future__ import annotations

import functools
from collections.abc import Callable

from .airline import airline_spec
from .auto import auto_spec
from .book import book_spec
from .carrental import carrental_spec
from .catalog import DomainSpec
from .generator import DomainDataset, generate_domain
from .hotels import hotels_spec
from .job import job_spec
from .realestate import realestate_spec

__all__ = ["DOMAINS", "DOMAIN_TITLES", "domain_spec", "load_domain", "load_all_domains"]

#: Builders, keyed by canonical domain name, in Table 6's row order.
DOMAINS: dict[str, Callable[[], DomainSpec]] = {
    "airline": airline_spec,
    "auto": auto_spec,
    "book": book_spec,
    "job": job_spec,
    "realestate": realestate_spec,
    "carrental": carrental_spec,
    "hotels": hotels_spec,
}

#: Display names matching the paper's Table 6.
DOMAIN_TITLES: dict[str, str] = {
    "airline": "Airline",
    "auto": "Auto",
    "book": "Book",
    "job": "Job",
    "realestate": "Real Estate",
    "carrental": "Car Rental",
    "hotels": "Hotels",
}


@functools.cache
def domain_spec(name: str) -> DomainSpec:
    """The catalog for ``name`` (raises ``KeyError`` on unknown domains).

    Built once per name and shared: a spec is immutable, and its sampling
    tables (see :class:`~repro.datasets.catalog.VariantPicker`) are built
    on first use, so every later corpus of the domain reuses them.
    """
    try:
        return DOMAINS[name]()
    except KeyError:
        known = ", ".join(DOMAINS)
        raise KeyError(f"unknown domain {name!r}; known domains: {known}") from None


def load_domain(name: str, seed: int = 0) -> DomainDataset:
    """Generate the synthetic corpus for one domain, deterministically."""
    return generate_domain(domain_spec(name), seed=seed)


def load_all_domains(seed: int = 0) -> dict[str, DomainDataset]:
    """All seven domains (the paper's 150-interface evaluation corpus)."""
    return {name: load_domain(name, seed=seed) for name in DOMAINS}
