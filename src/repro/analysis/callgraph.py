"""Project call graph: the second half of the whole-program tier.

Built over the :class:`~repro.analysis.symbols.ProgramIndex`, the
:class:`CallGraph` resolves call expressions to project functions/methods
and materializes the edge sets both flagship passes need:

* the ``guarded-by`` pass asks "who calls this helper method, and with
  which locks held?" — it uses :meth:`resolve_call` during its own walk and
  the reverse edges to propagate lock-held contexts to private helpers;
* the ``determinism`` pass runs a returns-nondeterminism fixpoint over the
  forward edges, so ``def now(): return time.time()`` in one module taints
  ``now()`` calls in every other module.

Resolution is deliberately static and conservative: ``self.m()`` resolves
to every override of ``m`` in the receiver's hierarchy unit, bare and
dotted names resolve through the per-module import tables, and anything
else (callable attributes, higher-order calls) resolves to nothing rather
than guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.analysis.asthelpers import dotted_name
from repro.analysis.symbols import ClassInfo, FunctionInfo, ProgramIndex

__all__ = ["CallGraph"]


class CallGraph:
    """Forward and reverse call edges between project functions."""

    def __init__(self, program: ProgramIndex):
        self.program = program
        #: caller qualname -> sorted callee qualnames.
        self.edges: Dict[str, List[str]] = {}
        #: callee qualname -> sorted caller qualnames.
        self.callers: Dict[str, List[str]] = {}
        self._unit_of: Dict[str, List[ClassInfo]] = {}
        for unit in program.hierarchy_units():
            for cls in unit:
                self._unit_of[cls.qualname] = unit
        self._build()

    def _build(self) -> None:
        forward: Dict[str, set] = {}
        for info in self._all_functions():
            callees = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    for target in self.resolve_call(info, node.func):
                        callees.add(target.qualname)
            forward[info.qualname] = callees
        self.edges = {name: sorted(callees) for name, callees in forward.items()}
        reverse: Dict[str, set] = {}
        for caller, callees in forward.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        self.callers = {name: sorted(callers) for name, callers in reverse.items()}

    def _all_functions(self) -> List[FunctionInfo]:
        functions = [
            self.program.functions[name] for name in sorted(self.program.functions)
        ]
        for qualname in sorted(self.program.classes):
            cls = self.program.classes[qualname]
            for name in sorted(cls.methods):
                functions.append(cls.methods[name])
        return functions

    def unit_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """The hierarchy unit containing ``cls``."""
        return self._unit_of.get(cls.qualname, [cls])

    def resolve_call(
        self, caller: FunctionInfo, func: ast.expr
    ) -> List[FunctionInfo]:
        """Project functions a call expression may invoke (possibly empty)."""
        # self.m(...) — every override in the receiver's hierarchy unit.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and caller.cls is not None
        ):
            return self.program.resolve_methods(
                self.unit_of(caller.cls), func.attr
            )
        name = dotted_name(func)
        if name is None:
            return []
        resolved = self.program.resolve_function(caller.module, name)
        if resolved is not None:
            return [resolved]
        # Cls.method / imported-Cls.method (unbound call through the class).
        if "." in name:
            cls_part, _, method = name.rpartition(".")
            cls_info = self.program.resolve_class(caller.module, cls_part)
            if cls_info is not None:
                return self.program.resolve_methods(
                    self.unit_of(cls_info), method
                )
        return []

    def __repr__(self) -> str:
        edge_count = sum(len(callees) for callees in self.edges.values())
        return f"CallGraph({len(self.edges)} nodes, {edge_count} edges)"
