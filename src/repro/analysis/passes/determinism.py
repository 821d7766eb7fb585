"""``determinism`` — whole-program nondeterminism taint analysis.

The golden-equivalence suite and the chaos soak check *dynamically* that
optimization is bit-exact deterministic: a request's plan is a function of
its query and seed only.  This pass checks the same invariant statically:

**Sources** produce tainted values:

* direct clock reads — ``time.time()`` / ``monotonic()`` /
  ``perf_counter()`` and friends called directly (the sanctioned pattern
  is an *injectable* clock: ``clock: Callable = time.monotonic`` passed as
  a default and called as ``self._clock()``, which this pass does not
  taint);
* global-state randomness — module-level ``random.*`` functions and
  unseeded ``random.Random()``;
* OS entropy — ``os.urandom``, ``uuid.uuid1/uuid4``, ``secrets.*``
  (flagged outright: they have no legitimate use here);
* ``hash()`` — string hashing is ``PYTHONHASHSEED``-randomized across
  processes;
* ``set`` iteration — iterating a set literal / comprehension /
  ``set(...)`` value is order-nondeterministic and flagged outright
  unless consumed order-insensitively (``sorted``, ``min``, ``sum``, ...);
* thread-pool completion order — ``concurrent.futures.as_completed``
  (flagged outright: consume results in submission order instead);
* **calls to project functions that return any of the above** — the
  whole-program part: a returns-nondeterminism fixpoint over the call
  graph taints ``now()`` in every module when ``def now(): return
  time.time()`` is defined in one.

**Sinks** are plan-affecting state; a tainted value reaching one is a
diagnostic: memo/cache/table subscript stores, cache ``put``/``get``
keys, comparisons against ``.cost``, RNG seeding (``Random(tainted)`` /
``.seed(tainted)``), assignments to seed/key/fingerprint/memo-named
variables, and returns from fingerprint/cache-key functions.

Suppression is the ordinary pragma: ``# repro: disable=determinism``.
Test files are exempt (they assert on wall time freely).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.asthelpers import dotted_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Pass, register_pass
from repro.analysis.symbols import FunctionInfo, ProgramIndex

__all__ = ["Determinism"]

#: Clock reads: taint, but no outright flag (timing stats are legitimate).
_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
}

#: Wall-clock suffixes (``datetime.datetime.now()`` however imported).
_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "date.today")

#: Module-level random functions (global RNG state): taint.
_GLOBAL_RANDOM = {
    "random.random",
    "random.randrange",
    "random.randint",
    "random.uniform",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.getrandbits",
    "random.gauss",
}

#: Flagged outright wherever they appear (plus tainting their result).
_FLAGGED_SOURCES = {
    "os.urandom": "os.urandom() draws OS entropy",
    "uuid.uuid1": "uuid.uuid1() depends on host and clock",
    "uuid.uuid4": "uuid.uuid4() draws OS entropy",
    "concurrent.futures.as_completed": (
        "as_completed() yields in thread-completion order"
    ),
}

#: Calling these with an unordered collection is order-insensitive.
_ORDER_SAFE = {"sorted", "min", "max", "sum", "len", "any", "all", "bool"}

#: Set-algebra methods that keep a collection unordered.
_SET_METHODS = {
    "union",
    "difference",
    "intersection",
    "symmetric_difference",
    "copy",
}

#: Plan-affecting container names (subscript-store sinks).
_STATE_RE = re.compile(r"(^|_)(memo|cache|table)s?(_|$)", re.IGNORECASE)

#: Key-like binding names (assignment sinks).
_KEYNAME_RE = re.compile(r"(^|_)(seed|key|fingerprint|memo)s?(_|$)")

#: Key-producing functions (argument and return sinks).
_KEYFUNC_RE = re.compile(r"(fingerprint|cache_key|plan_key|canonical)")

#: Cost-bearing operands in comparisons.
_COST_RE = re.compile(r"(^|_)costs?($|_)")


def _is_cost_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return bool(_COST_RE.search(node.attr))
    if isinstance(node, ast.Name):
        return bool(_COST_RE.search(node.id))
    return False


class _Value:
    """Abstract value: a taint origin (or None) plus set-unorderedness."""

    __slots__ = ("origin", "unordered")

    def __init__(self, origin: Optional[str] = None, unordered: bool = False):
        self.origin = origin
        self.unordered = unordered

    @property
    def tainted(self) -> bool:
        return self.origin is not None


_CLEAN = _Value()


def _merge(values: Sequence[_Value]) -> _Value:
    origin = None
    for value in values:
        if value.origin is not None:
            origin = value.origin
            break
    return _Value(origin, any(value.unordered for value in values))


class _FunctionAnalysis:
    """One pass over one function body (or a module's top level)."""

    def __init__(
        self,
        program: ProgramIndex,
        func: FunctionInfo,
        nondet: Set[str],
        diagnostics: Optional[List[Diagnostic]],
    ):
        self.program = program
        self.func = func
        self.module = func.module
        self.nondet = nondet
        self.diagnostics = diagnostics
        self.env: Dict[str, str] = {}
        self.unordered: Set[str] = set()
        self.returns_tainted = False

    # -- plumbing ------------------------------------------------------

    def _canonical(self, func_expr: ast.expr) -> Optional[str]:
        """Dotted call target with the first segment expanded via imports."""
        name = dotted_name(func_expr)
        if name is None:
            return None
        imports = self.program.imports.get(
            self.program.module_names.get(self.module.display_path, ""), {}
        )
        if name in imports:
            return imports[name]
        head, _, rest = name.partition(".")
        if head in imports and imports[head] != head:
            return f"{imports[head]}.{rest}" if rest else imports[head]
        return name

    def _emit(self, node: ast.AST, message: str) -> None:
        if self.diagnostics is None:
            return
        self.diagnostics.append(
            Diagnostic(
                path=self.module.display_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule="determinism",
                message=message,
            )
        )

    def _bind(self, target: ast.expr, value: _Value, node: ast.AST) -> None:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            name = f"self.{target.attr}"
        if name is not None:
            bare = name.rsplit(".", 1)[-1]
            if value.tainted and _KEYNAME_RE.search(bare):
                self._emit(
                    node,
                    f"nondeterministic value ({value.origin}) assigned to "
                    f"{bare!r}; seeds, keys and fingerprints must be "
                    "derived from the query and the run's seed only",
                )
            if value.tainted:
                self.env[name] = value.origin
            else:
                self.env.pop(name, None)
            if value.unordered:
                self.unordered.add(name)
            else:
                self.unordered.discard(name)
        elif isinstance(target, ast.Subscript):
            self._subscript_store(target, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, _Value(value.origin, False), node)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, value, node)

    def _subscript_store(self, target: ast.Subscript, value: _Value) -> None:
        base_name = None
        if isinstance(target.value, ast.Name):
            base_name = target.value.id
        elif isinstance(target.value, ast.Attribute):
            base_name = target.value.attr
        key = self._eval(target.slice)
        if base_name is not None and _STATE_RE.search(base_name):
            offender = key if key.tainted else value
            if offender.tainted:
                role = "key" if key.tainted else "value"
                self._emit(
                    target,
                    f"nondeterministic {role} ({offender.origin}) stored "
                    f"into {base_name!r}; memo/cache state must be a "
                    "function of the query and seed only",
                )

    # -- statements ----------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed as their own functions
        if isinstance(node, ast.Assign):
            value = self._eval(node.value)
            for target in node.targets:
                self._bind(target, value, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self._eval(node.value), node)
        elif isinstance(node, ast.AugAssign):
            combined = _merge([self._eval(node.target), self._eval(node.value)])
            self._bind(node.target, combined, node)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                value = self._eval(node.value)
                if value.tainted:
                    self.returns_tainted = True
                    if self.func.name != "<module>" and _KEYFUNC_RE.search(
                        self.func.name
                    ):
                        self._emit(
                            node,
                            f"{self.func.name}() returns a nondeterministic "
                            f"value ({value.origin}); key/fingerprint "
                            "functions must be pure",
                        )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iterated = self._eval(node.iter)
            self._flag_unordered_iteration(node.iter, iterated)
            self._bind(node.target, _Value(iterated.origin, False), node)
            for child in node.body:
                self._stmt(child)
            for child in node.orelse:
                self._stmt(child)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, node)
            for child in node.body:
                self._stmt(child)
        elif isinstance(node, ast.Try):
            for child in node.body:
                self._stmt(child)
            for handler in node.handlers:
                for child in handler.body:
                    self._stmt(child)
            for child in node.orelse:
                self._stmt(child)
            for child in node.finalbody:
                self._stmt(child)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._stmt(child)
                elif isinstance(child, ast.expr):
                    self._eval(child)

    def _flag_unordered_iteration(
        self, iter_expr: ast.expr, iterated: _Value
    ) -> None:
        if iterated.unordered:
            self._emit(
                iter_expr,
                "iteration over a set has nondeterministic order; iterate "
                "sorted(...) or use an ordered container",
            )

    # -- expressions ---------------------------------------------------

    def _eval(self, node: ast.expr) -> _Value:
        if isinstance(node, ast.Name):
            return _Value(self.env.get(node.id), node.id in self.unordered)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                key = f"self.{node.attr}"
                return _Value(self.env.get(key), key in self.unordered)
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.Set,)):
            return _Value(
                _merge([self._eval(e) for e in node.elts]).origin, True
            )
        if isinstance(node, ast.SetComp):
            return _Value(self._eval_comprehension(node), True)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return _Value(self._eval_comprehension(node), False)
        if isinstance(node, ast.DictComp):
            self._eval_comprehension(node)
            return _CLEAN
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.BinOp):
            return _merge([self._eval(node.left), self._eval(node.right)])
        if isinstance(node, ast.BoolOp):
            return _merge([self._eval(v) for v in node.values])
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _merge([self._eval(node.body), self._eval(node.orelse)])
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value)
            self._eval(node.slice)
            return _Value(base.origin, False)
        if isinstance(node, (ast.Tuple, ast.List)):
            return _Value(
                _merge([self._eval(e) for e in node.elts]).origin, False
            )
        if isinstance(node, ast.Dict):
            parts = [self._eval(v) for v in node.values if v is not None]
            parts += [self._eval(k) for k in node.keys if k is not None]
            return _Value(_merge(parts).origin if parts else None, False)
        if isinstance(node, ast.JoinedStr):
            return _Value(
                _merge(
                    [
                        self._eval(v.value)
                        for v in node.values
                        if isinstance(v, ast.FormattedValue)
                    ]
                ).origin
                if node.values
                else None,
                False,
            )
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Lambda):
            return _CLEAN
        # Constants and anything unmodeled: clean.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
        return _CLEAN

    def _eval_comprehension(self, node) -> Optional[str]:
        origin = None
        for generator in node.generators:
            iterated = self._eval(generator.iter)
            self._flag_unordered_iteration(generator.iter, iterated)
            self._bind(generator.target, _Value(iterated.origin, False), node)
            if iterated.origin and origin is None:
                origin = iterated.origin
            for condition in generator.ifs:
                self._eval(condition)
        if isinstance(node, ast.DictComp):
            parts = [self._eval(node.key), self._eval(node.value)]
        else:
            parts = [self._eval(node.elt)]
        element = _merge(parts)
        return element.origin or origin

    def _eval_compare(self, node: ast.Compare) -> _Value:
        sides = [node.left] + list(node.comparators)
        values = [self._eval(side) for side in sides]
        cost_sides = [_is_cost_operand(side) for side in sides]
        if any(cost_sides):
            for side_cost, value in zip(cost_sides, values):
                if not side_cost and value.tainted:
                    self._emit(
                        node,
                        f"nondeterministic value ({value.origin}) compared "
                        "against a plan cost; cost decisions must replay "
                        "identically",
                    )
                    break
        return _Value(_merge(values).origin, False)

    def _eval_call(self, node: ast.Call) -> _Value:
        arg_values = [self._eval(arg) for arg in node.args]
        arg_values += [self._eval(kw.value) for kw in node.keywords]
        args = _merge(arg_values) if arg_values else _CLEAN
        canonical = self._canonical(node.func)
        last = canonical.rsplit(".", 1)[-1] if canonical else None
        receiver = _CLEAN
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value)
        elif not isinstance(node.func, ast.Name):
            receiver = self._eval(node.func)

        line = getattr(node, "lineno", 0)
        if canonical in _CLOCKS:
            return _Value(f"{canonical}() at line {line}", False)
        if canonical is not None and canonical.endswith(_CLOCK_SUFFIXES):
            return _Value(f"{canonical}() at line {line}", False)
        if canonical in _GLOBAL_RANDOM:
            return _Value(f"global-state {canonical}() at line {line}", False)
        if canonical in _FLAGGED_SOURCES:
            self._emit(
                node,
                f"{_FLAGGED_SOURCES[canonical]}; a replay cannot reproduce "
                "it — derive the value deterministically instead",
            )
            return _Value(f"{canonical}() at line {line}", False)
        if canonical is not None and canonical.startswith("secrets."):
            self._emit(
                node,
                f"{canonical}() draws OS entropy; a replay cannot "
                "reproduce it — derive the value deterministically instead",
            )
            return _Value(f"{canonical}() at line {line}", False)
        if canonical == "hash":
            return _Value(
                f"hash() at line {line} (PYTHONHASHSEED-dependent)", False
            )
        if canonical is not None and (
            canonical == "random.Random" or canonical.endswith(".Random")
        ):
            if args.tainted:
                self._emit(
                    node,
                    f"RNG seeded from a nondeterministic value "
                    f"({args.origin}); seed from the request's seed chain "
                    "instead",
                )
                return _CLEAN
            if not node.args and not node.keywords:
                return _Value(f"unseeded Random() at line {line}", False)
            return _CLEAN
        if last == "seed" and args.tainted:
            self._emit(
                node,
                f"RNG seeded from a nondeterministic value ({args.origin}); "
                "seed from the request's seed chain instead",
            )
            return _CLEAN
        if (
            isinstance(node.func, ast.Attribute)
            and last in ("put", "get")
            and args.tainted
        ):
            receiver_name = dotted_name(node.func.value) or ""
            if "cache" in receiver_name.lower():
                self._emit(
                    node,
                    f"nondeterministic value ({args.origin}) used in "
                    f"{receiver_name}.{last}(); cache keys and entries "
                    "must be a function of the query and seed only",
                )
        if last is not None and _KEYFUNC_RE.search(last) and args.tainted:
            self._emit(
                node,
                f"nondeterministic value ({args.origin}) passed to "
                f"{last}(); key/fingerprint inputs must be deterministic",
            )
        if canonical in _ORDER_SAFE:
            return _Value(args.origin, False)
        if canonical in ("set", "frozenset"):
            return _Value(args.origin, True)
        if canonical in ("list", "tuple"):
            # list(s)/tuple(s) of a set materializes the unstable order.
            if args.unordered:
                self._emit(
                    node,
                    f"{canonical}() materializes a set's nondeterministic "
                    "iteration order; wrap in sorted(...) instead",
                )
            return _Value(args.origin, False)
        project_origin = self._project_call_origin(node)
        if project_origin is not None:
            return _Value(project_origin, False)
        unordered = receiver.unordered and last in _SET_METHODS
        return _Value(args.origin or receiver.origin, unordered)

    def _project_call_origin(self, node: ast.Call) -> Optional[str]:
        callgraph = self.program.callgraph()
        for target in callgraph.resolve_call(self.func, node.func):
            if target.qualname in self.nondet:
                return (
                    f"call to {target.name}() at line "
                    f"{getattr(node, 'lineno', 0)} "
                    f"(returns a nondeterministic value)"
                )
        return None


def _analysis_functions(program: ProgramIndex) -> List[FunctionInfo]:
    """Every function, method, and module top level worth analyzing."""
    functions: List[FunctionInfo] = []
    for dotted in sorted(program.modules):
        module = program.modules[dotted]
        if module.is_test_file:
            continue
        functions.append(
            FunctionInfo(
                "<module>", f"{dotted}::<module>", module, module.tree, None, False
            )
        )
        for name in sorted(program.module_functions.get(dotted, {})):
            functions.append(program.module_functions[dotted][name])
        for cls_name in sorted(program.module_classes.get(dotted, {})):
            cls = program.module_classes[dotted][cls_name]
            for method_name in sorted(cls.methods):
                functions.append(cls.methods[method_name])
    return functions


def _body_of(func: FunctionInfo) -> Sequence[ast.stmt]:
    if func.name == "<module>":
        return [
            stmt
            for stmt in func.node.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
    return func.node.body


@register_pass
class Determinism(Pass):
    id = "determinism"
    description = (
        "nondeterminism sources (wall clocks, global RNG, OS entropy, set "
        "iteration, completion order) must not flow into plan-affecting "
        "state (memos, cache keys, cost comparisons, seeds, fingerprints)"
    )

    #: Fixpoint cap; nondet-return chains deeper than this are vanishingly
    #: unlikely and the set only ever grows, so truncation is safe.
    max_rounds = 6

    def check_program(self, program: ProgramIndex):
        functions = _analysis_functions(program)
        nondet: Set[str] = set()
        for _ in range(self.max_rounds):
            grew = False
            for func in functions:
                if func.qualname in nondet or func.name == "<module>":
                    continue
                analysis = _FunctionAnalysis(program, func, nondet, None)
                analysis.run(_body_of(func))
                if analysis.returns_tainted:
                    nondet.add(func.qualname)
                    grew = True
            if not grew:
                break
        diagnostics: List[Diagnostic] = []
        for func in functions:
            analysis = _FunctionAnalysis(program, func, nondet, diagnostics)
            analysis.run(_body_of(func))
        seen = set()
        for diagnostic in sorted(diagnostics):
            if diagnostic in seen:
                continue
            seen.add(diagnostic)
            yield diagnostic
