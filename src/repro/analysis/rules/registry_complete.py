"""``registry-complete`` — every concrete strategy must be registered.

The Fig. 7–15 benchmark matrix is driven entirely by the name registries
(``PARTITIONINGS``, ``HEURISTICS``, ``PRUNING_STRATEGIES``): a concrete
subclass that never reaches its registry silently drops out of every
experiment.  This project-scope rule walks the class hierarchy across all
analyzed files and reports concrete subclasses of the registered base
classes whose names never appear in the corresponding registry module.

Test files are exempt (test doubles subclass the bases freely), as are
underscore-private and abstract classes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Set

from repro.analysis.asthelpers import decorator_name, diagnostic_at, identifiers_in
from repro.analysis.registry import Rule, register_rule

__all__ = ["RegistryComplete"]


@dataclass(frozen=True)
class _Spec:
    base: str
    registry_suffix: str
    registry_name: str


#: Base class -> the module whose source must mention each concrete subclass.
_SPECS = (
    _Spec("PartitioningStrategy", "repro/partitioning/registry.py", "PARTITIONINGS"),
    _Spec("JoinHeuristic", "repro/heuristics/registry.py", "HEURISTICS"),
    _Spec("PlanGeneratorBase", "repro/core/routing.py", "PRUNING_STRATEGIES"),
)

_ABSTRACT_DECORATORS = {"abstractmethod", "abstractproperty"}
_ABSTRACT_BASES = {"ABC", "ABCMeta", "Protocol"}


@dataclass
class _ClassInfo:
    name: str
    module: object
    node: ast.ClassDef
    bases: Set[str]
    is_abstract: bool


def _base_names(node: ast.ClassDef) -> Set[str]:
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
        elif isinstance(base, ast.Subscript):  # Generic[...] style bases
            value = base.value
            if isinstance(value, ast.Name):
                names.add(value.id)
            elif isinstance(value, ast.Attribute):
                names.add(value.attr)
    return names


def _is_abstract(node: ast.ClassDef) -> bool:
    if _ABSTRACT_BASES.intersection(_base_names(node)):
        return True
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in statement.decorator_list:
                if decorator_name(decorator) in _ABSTRACT_DECORATORS:
                    return True
    return False


def _collect_classes(project) -> Dict[str, List[_ClassInfo]]:
    classes: Dict[str, List[_ClassInfo]] = {}
    for module in project.modules:
        if module.is_test_file:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(
                    _ClassInfo(
                        name=node.name,
                        module=module,
                        node=node,
                        bases=_base_names(node),
                        is_abstract=_is_abstract(node),
                    )
                )
    return classes


def _descendants(root: str, classes: Dict[str, List[_ClassInfo]]) -> List[_ClassInfo]:
    """All classes deriving (transitively, by name) from ``root``."""
    reached = {root}
    found: List[_ClassInfo] = []
    changed = True
    while changed:
        changed = False
        for infos in classes.values():
            for info in infos:
                if info.name in reached:
                    continue
                if info.bases & reached:
                    reached.add(info.name)
                    found.append(info)
                    changed = True
    return found


@register_rule
class RegistryComplete(Rule):
    id = "registry-complete"
    description = (
        "concrete PartitioningStrategy / JoinHeuristic / PlanGeneratorBase "
        "subclasses must be referenced by their registry module"
    )
    scope = "project"

    def check_project(self, project):
        classes = _collect_classes(project)
        for spec in _SPECS:
            subclasses = [
                info
                for info in _descendants(spec.base, classes)
                if not info.is_abstract and not info.name.startswith("_")
            ]
            if not subclasses:
                continue
            registry_module = project.find_by_suffix(spec.registry_suffix)
            registered = (
                identifiers_in(registry_module.tree)
                if registry_module is not None
                else set()
            )
            for info in subclasses:
                if info.name in registered:
                    continue
                where = (
                    f"{spec.registry_suffix} ({spec.registry_name})"
                    if registry_module is not None
                    else f"{spec.registry_suffix} (not among the analyzed "
                    "files, so registration cannot be verified)"
                )
                yield diagnostic_at(
                    info.module,
                    info.node,
                    self.id,
                    f"concrete {spec.base} subclass {info.name!r} is not "
                    f"referenced in {where}; register it so it appears in "
                    "the benchmark matrix",
                )
