"""Project-wide symbol table: the first half of the whole-program tier.

A :class:`ProgramIndex` is built once per analysis run from the parsed
:class:`~repro.analysis.engine.Project` and gives passes what a single
module's AST cannot:

* a **module map** from dotted names (``repro.service.queue``) to parsed
  :class:`~repro.analysis.engine.ModuleContext` s, with suffix matching so
  fixture trees rooted in temporary directories resolve the same way the
  real ``src/`` tree does;
* per-module **import tables** (``from m import x as y`` -> ``y`` means
  ``m.x``), including relative imports;
* every **class** with its methods, resolved base classes, and the
  **hierarchy units** (connected components of the project-resolvable
  inheritance graph) the ``guarded-by`` pass analyzes as one lock domain;
* every module-level **function**.

Everything is ordered deterministically (sorted dotted names) so pass
output is stable across runs and platforms, like the rest of the linter.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, List, Optional, Tuple

from repro.analysis.asthelpers import dotted_name

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ProgramIndex",
    "module_dotted_name",
    "class_level_assign_lines",
]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_dotted_name(display_path: str) -> str:
    """Derive a dotted module name from a path.

    ``src/repro/service/queue.py`` -> ``repro.service.queue`` (the segment
    up to and including the last ``src`` is dropped); ``pkg/__init__.py``
    -> ``pkg``.  Absolute fixture paths keep every segment, which is fine —
    import resolution matches on dotted-name *suffixes*.
    """
    parts = [part for part in PurePosixPath(display_path).parts if part != "/"]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    return ".".join(part for part in parts if part)


class FunctionInfo:
    """One function or method definition, with enough context to report on."""

    __slots__ = ("name", "qualname", "module", "node", "cls", "is_property")

    def __init__(self, name, qualname, module, node, cls, is_property):
        self.name = name
        #: ``module::Class.method`` or ``module::function``.
        self.qualname = qualname
        self.module = module
        self.node = node
        self.cls: Optional["ClassInfo"] = cls
        self.is_property = is_property

    @property
    def is_public(self) -> bool:
        """Callable from outside the class: no leading underscore, or dunder."""
        return not self.name.startswith("_") or (
            self.name.startswith("__") and self.name.endswith("__")
        )

    def __repr__(self) -> str:
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """One class definition plus its resolved project-internal bases."""

    __slots__ = ("name", "qualname", "module", "node", "base_names", "methods")

    def __init__(self, name, qualname, module, node):
        self.name = name
        self.qualname = qualname
        self.module = module
        self.node = node
        #: Base expressions as written (dotted strings), resolved lazily.
        self.base_names: List[str] = []
        self.methods: Dict[str, FunctionInfo] = {}

    def __repr__(self) -> str:
        return f"ClassInfo({self.qualname})"


def _decorator_names(node) -> List[str]:
    names = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return names


class ProgramIndex:
    """The whole-program view passes run against."""

    def __init__(self, project):
        self.project = project
        #: dotted module name -> ModuleContext (sorted insertion order).
        self.modules: Dict[str, object] = {}
        #: display_path -> dotted module name.
        self.module_names: Dict[str, str] = {}
        #: dotted module name -> {local name -> imported dotted target}.
        self.imports: Dict[str, Dict[str, str]] = {}
        #: class qualname -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        #: dotted module name -> {class name -> ClassInfo}.
        self.module_classes: Dict[str, Dict[str, ClassInfo]] = {}
        #: function qualname -> FunctionInfo (module-level only).
        self.functions: Dict[str, FunctionInfo] = {}
        #: dotted module name -> {function name -> FunctionInfo}.
        self.module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        self._callgraph = None
        for module in sorted(project.modules, key=lambda m: m.display_path):
            self._index_module(module)

    # -- construction --------------------------------------------------

    def _index_module(self, module) -> None:
        dotted = module_dotted_name(module.display_path)
        if dotted in self.modules:  # duplicate basename collision: keep first
            dotted = module.display_path
        self.modules[dotted] = module
        self.module_names[module.display_path] = dotted
        self.imports[dotted] = self._collect_imports(module.tree, dotted)
        self.module_classes[dotted] = {}
        self.module_functions[dotted] = {}
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(module, dotted, node)
            elif isinstance(node, _FUNCTION_NODES):
                info = FunctionInfo(
                    node.name,
                    f"{dotted}::{node.name}",
                    module,
                    node,
                    None,
                    False,
                )
                self.functions[info.qualname] = info
                self.module_functions[dotted][node.name] = info

    def _index_class(self, module, dotted: str, node: ast.ClassDef) -> None:
        info = ClassInfo(node.name, f"{dotted}::{node.name}", module, node)
        for base in node.bases:
            base_name = dotted_name(base)
            if base_name is not None:
                info.base_names.append(base_name)
        for child in node.body:
            if isinstance(child, _FUNCTION_NODES):
                decorators = _decorator_names(child)
                info.methods[child.name] = FunctionInfo(
                    child.name,
                    f"{info.qualname}.{child.name}",
                    module,
                    child,
                    info,
                    "property" in decorators or "cached_property" in decorators,
                )
        self.classes[info.qualname] = info
        self.module_classes[dotted][info.name] = info

    def _collect_imports(self, tree: ast.Module, dotted: str) -> Dict[str, str]:
        table: Dict[str, str] = {}
        package = dotted.split(".")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        # `import a.b` binds `a`; track the full target too.
                        table[alias.name.split(".")[0]] = alias.name.split(".")[0]
                        table[alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package[: len(package) - node.level]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        return table

    # -- resolution ----------------------------------------------------

    def resolve_module(self, dotted: str):
        """Module context for ``dotted``, matching by exact name or suffix."""
        found = self.modules.get(dotted)
        if found is not None:
            return found
        suffix = "." + dotted
        for name in sorted(self.modules):
            if name.endswith(suffix):
                return self.modules[name]
        return None

    def _module_name_of(self, module) -> str:
        return self.module_names.get(
            module.display_path, module_dotted_name(module.display_path)
        )

    def resolve_class(self, from_module, name: str) -> Optional[ClassInfo]:
        """Resolve ``name`` (bare or dotted, as written in ``from_module``)."""
        dotted = self._module_name_of(from_module)
        local = self.module_classes.get(dotted, {})
        if name in local:
            return local[name]
        imports = self.imports.get(dotted, {})
        head, _, rest = name.partition(".")
        target = imports.get(name) or imports.get(head)
        if target is None:
            return None
        if name in imports:
            # `from m import Cls` — target is m.Cls.
            mod_name, _, cls_name = imports[name].rpartition(".")
            holder = self.resolve_module(mod_name)
            if holder is None:
                return None
            return self.module_classes.get(self._module_name_of(holder), {}).get(
                cls_name
            )
        if rest:
            # `m.Cls` via `import m` (possibly dotted further: `a.b.Cls`).
            mod_part, _, cls_name = name.rpartition(".")
            resolved_mod = imports.get(mod_part, mod_part)
            holder = self.resolve_module(resolved_mod)
            if holder is None:
                return None
            return self.module_classes.get(self._module_name_of(holder), {}).get(
                cls_name
            )
        return None

    def resolve_function(self, from_module, name: str) -> Optional[FunctionInfo]:
        """Resolve a called name to a module-level project function."""
        dotted = self._module_name_of(from_module)
        local = self.module_functions.get(dotted, {})
        if name in local:
            return local[name]
        imports = self.imports.get(dotted, {})
        if name in imports:
            mod_name, _, func_name = imports[name].rpartition(".")
            holder = self.resolve_module(mod_name)
            if holder is None:
                return None
            return self.module_functions.get(
                self._module_name_of(holder), {}
            ).get(func_name)
        if "." in name:
            mod_part, _, func_name = name.rpartition(".")
            resolved_mod = imports.get(mod_part, mod_part)
            holder = self.resolve_module(resolved_mod)
            if holder is None:
                return None
            return self.module_functions.get(
                self._module_name_of(holder), {}
            ).get(func_name)
        return None

    def base_classes(self, info: ClassInfo) -> List[ClassInfo]:
        """Project-resolvable direct bases of ``info`` (external bases drop)."""
        bases = []
        for base_name in info.base_names:
            resolved = self.resolve_class(info.module, base_name)
            if resolved is not None:
                bases.append(resolved)
        return bases

    def hierarchy_units(self) -> List[List[ClassInfo]]:
        """Connected components of the inheritance graph, each sorted.

        A unit is the set of classes the ``guarded-by`` pass treats as one
        lock domain: a base class and every project subclass share attribute
        inference, so a subclass in another module inherits (and must honor)
        the base's guard map.
        """
        parent: Dict[str, str] = {name: name for name in self.classes}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for qualname in sorted(self.classes):
            for base in self.base_classes(self.classes[qualname]):
                union(qualname, base.qualname)

        groups: Dict[str, List[ClassInfo]] = {}
        for qualname in sorted(self.classes):
            groups.setdefault(find(qualname), []).append(self.classes[qualname])
        return [groups[root] for root in sorted(groups)]

    def unit_methods(self, unit: List[ClassInfo]) -> List[FunctionInfo]:
        """Every method defined anywhere in a hierarchy unit, sorted."""
        methods = []
        for cls in sorted(unit, key=lambda c: c.qualname):
            for name in sorted(cls.methods):
                methods.append(cls.methods[name])
        return methods

    def resolve_methods(
        self, unit: List[ClassInfo], name: str
    ) -> List[FunctionInfo]:
        """Every method named ``name`` in a unit (all overrides).

        ``self.m()`` inside a hierarchy can land on any override depending
        on the dynamic type, so lock-context propagation applies the call
        context to each of them.
        """
        return [
            cls.methods[name]
            for cls in sorted(unit, key=lambda c: c.qualname)
            if name in cls.methods
        ]

    # -- call graph ----------------------------------------------------

    def callgraph(self):
        """The lazily-built project call graph (cached per index)."""
        if self._callgraph is None:
            from repro.analysis.callgraph import CallGraph

            self._callgraph = CallGraph(self)
        return self._callgraph

    def stats(self) -> Dict[str, int]:
        """Index size summary (used by ``--list-passes`` style debugging)."""
        return {
            "modules": len(self.modules),
            "classes": len(self.classes),
            "functions": len(self.functions),
        }

    def __repr__(self) -> str:
        sizes = self.stats()
        return (
            f"ProgramIndex({sizes['modules']} modules, "
            f"{sizes['classes']} classes, {sizes['functions']} functions)"
        )


def class_level_assign_lines(info: ClassInfo) -> Dict[str, int]:
    """Class-body attribute declarations: name -> line (for pragma lookup)."""
    lines: Dict[str, int] = {}
    for node in info.node.body:
        targets: Tuple[ast.expr, ...] = ()
        if isinstance(node, ast.Assign):
            targets = tuple(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = (node.target,)
        for target in targets:
            if isinstance(target, ast.Name):
                lines[target.id] = node.lineno
    return lines
