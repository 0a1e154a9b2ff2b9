"""flexbuild — LEGO-like component composition (paper §3).

The paper's ``flexbuild`` utility lets users pick numbered components
(Fig. 3's ①–㉔) and build a tailored deployment.  The reproduction
keeps the same component ids and the same compatibility logic: each
engine component declares the GRIN traits it requires, each storage
component provides the ``TRAITS`` its store class declares, and
:func:`flexbuild` validates a selection and returns a :class:`Stack`
that records it.  The stack constructs nothing: callers build the
chosen store and engines themselves.

Examples from the paper (§3, "flexbuild and Customized Deployments"):

* Workload 2 (anti-fraud analytics + learning over in-memory graphs):
  components ① ⑤ ⑭ ⑯ ⑳ ㉒  -> ``flexbuild("C1","C5","C14","C16","C20","C22")``
* Workload 5 (single-machine BI over archives):
  components ② ④ ⑧ ⑨ ⑩ ⑬ ⑳ ㉓ -> Cypher + optimizer + Gaia + GraphAr.
"""
from __future__ import annotations

import importlib
from dataclasses import dataclass

from repro.storage.grin import Trait

# component id -> (human name, kind, payload)
REGISTRY: dict[str, tuple[str, str, object]] = {
    "C1": ("SDKs", "interface", None),
    "C2": ("WebSocket/RESTful API", "interface", None),
    "C3": ("Gremlin", "language", "repro.query.gremlin"),
    "C4": ("Cypher", "language", "repro.query.cypher"),
    "C5": ("Built-in iterative algorithms", "library", "repro.analytics.algorithms"),
    "C6": ("Algorithm SDK (Pregel/PIE/FLASH)", "library", "repro.analytics"),
    "C7": ("GNN models", "library", "repro.learning.sage"),
    "C8": ("GraphIR", "compiler", "repro.query.ir"),
    "C9": ("Query optimizer (RBO+CBO)", "compiler", "repro.query.planner"),
    "C10": ("Codegen: Gaia", "compiler", "repro.query.gaia"),
    "C11": ("Codegen: HiActor", "compiler", "repro.query.hiactor"),
    "C12": ("HiActor engine", "engine", Trait.TOPOLOGY | Trait.PROPERTY),
    "C13": ("Gaia engine", "engine", Trait.TOPOLOGY | Trait.PROPERTY),
    "C14": ("Pregel model", "engine", Trait.TOPOLOGY),
    "C15": ("FLASH model", "engine", Trait.TOPOLOGY),
    "C16": ("GRAPE engine", "engine", Trait.TOPOLOGY),
    "C17": ("GraphLearn sampler", "engine", Trait.TOPOLOGY | Trait.PROPERTY),
    "C18": ("PyTorch backend (numpy analog)", "backend", "repro.learning.sage"),
    "C19": ("TensorFlow backend (numpy analog)", "backend", "repro.learning.sage"),
    "C20": ("GRIN", "interface", "repro.storage.grin"),
    "C21": ("GART", "storage", "repro.storage.gart.GartStore"),
    "C22": ("Vineyard", "storage", "repro.storage.vineyard.VineyardStore"),
    "C23": ("GraphAr", "storage", "repro.storage.graphar.GraphArStore"),
    "C24": ("Static CSR", "storage", "repro.storage.csr.StaticCSRStore"),
}


def storage_traits(component: str) -> Trait:
    """GRIN traits of a storage component: the ``TRAITS`` its store
    class declares (the class ``REGISTRY`` names)."""
    module, cls = REGISTRY[component][2].rsplit(".", 1)
    return getattr(importlib.import_module(module), cls).TRAITS


@dataclass
class Stack:
    """A validated selection of components."""

    components: tuple
    engines: tuple
    storages: tuple
    languages: tuple = ()

    def describe(self) -> str:
        return " + ".join(REGISTRY[c][0] for c in self.components)


class IncompatibleStack(ValueError):
    pass


def flexbuild(*components: str) -> Stack:
    """Validate and assemble a component selection.

    Raises :class:`IncompatibleStack` when an engine requires a GRIN
    trait no selected storage provides, when an engine is selected
    with no storage at all, or when an unknown component id is given.
    """
    unknown = [c for c in components if c not in REGISTRY]
    if unknown:
        raise IncompatibleStack(f"unknown components: {unknown}")
    engines = tuple(c for c in components if REGISTRY[c][1] == "engine")
    storages = tuple(c for c in components if REGISTRY[c][1] == "storage")
    languages = tuple(c for c in components if REGISTRY[c][1] == "language")
    if engines and not storages:
        raise IncompatibleStack("engines selected but no storage backend")
    if languages and "C8" not in components:
        raise IncompatibleStack("query languages require GraphIR (C8)")
    for e in engines:
        needed = REGISTRY[e][2]
        if not isinstance(needed, Trait):
            continue
        if not any(needed & ~storage_traits(s) == Trait(0) for s in storages):
            raise IncompatibleStack(
                f"engine {REGISTRY[e][0]} requires traits {needed!r} that no "
                f"selected storage provides"
            )
    return Stack(tuple(components), engines, storages, languages)


# the paper's two worked examples
WORKLOAD2 = ("C1", "C5", "C14", "C16", "C20", "C22")
WORKLOAD5 = ("C2", "C4", "C8", "C9", "C10", "C13", "C20", "C23")
