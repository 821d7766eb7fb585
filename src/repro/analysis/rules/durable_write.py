"""``durable-write`` — library file writes must be crash-safe.

The durable plan store's whole contract is that a crash can never leave
a half-written file behind, and that guarantee only holds if *every*
write path in ``src/repro`` goes through the fsync-disciplined helpers:
:func:`repro.context.store.atomic_write_text` (tmp file → fsync →
rename → directory fsync) for whole-file artifacts, or a
:class:`~repro.context.store.DurableStore` for append-only records.  A
bare ``open(path, "w")`` or ``Path.write_text`` sprinkled anywhere else
re-introduces exactly the torn-file window recovery exists to close.

The rule fires on ``open()``/``.open()`` calls whose mode constant
contains any of ``w``/``a``/``x``/``+`` and on any ``.write_text`` /
``.write_bytes`` call, in non-test modules under ``src/repro``.  The
store module itself is exempt (it *is* the helper), and intentionally
non-durable writers — e.g. the trace sink, whose JSONL lines are
diagnostics, not state — opt out per line with
``# repro: disable=durable-write``.
"""

from __future__ import annotations

import ast

from repro.analysis.asthelpers import diagnostic_at, dotted_name
from repro.analysis.registry import Rule, register_rule

__all__ = ["DurableWrite"]

_WRITE_FLAGS = set("wax+")
_MODE_CHARS = set("rwaxbt+")
#: Module-level open functions whose mode is the second positional arg.
_OPEN_FUNCTIONS = {"open", "io.open", "os.fdopen"}
#: The helper module is where the discipline lives; it may hold raw handles.
_EXEMPT_SUFFIX = "/repro/context/store.py"


def _mode_constant(node: ast.Call, position: int):
    """The call's mode argument, if it is a plausible constant mode string."""
    candidate = None
    for keyword in node.keywords:
        if keyword.arg == "mode":
            candidate = keyword.value
            break
    if candidate is None and len(node.args) > position:
        candidate = node.args[position]
    if (
        isinstance(candidate, ast.Constant)
        and isinstance(candidate.value, str)
        and 0 < len(candidate.value) <= 3
        and set(candidate.value) <= _MODE_CHARS
    ):
        return candidate.value
    return None


@register_rule
class DurableWrite(Rule):
    id = "durable-write"
    description = (
        "file writes under src/repro must go through the fsync-disciplined "
        "store helpers (atomic_write_text / DurableStore)"
    )

    def check_module(self, module):
        if "/src/repro/" not in module.posix or module.is_test_file:
            return
        if module.posix.endswith(_EXEMPT_SUFFIX):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _OPEN_FUNCTIONS:
                mode = _mode_constant(node, 1)
                if mode is not None and _WRITE_FLAGS & set(mode):
                    yield diagnostic_at(
                        module,
                        node,
                        self.id,
                        f"{name}(..., {mode!r}) writes without the tmp-file/"
                        "fsync/rename discipline; use repro.context.store."
                        "atomic_write_text (or a DurableStore) so a crash "
                        "cannot leave a torn file",
                    )
            elif isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in ("write_text", "write_bytes"):
                    yield diagnostic_at(
                        module,
                        node,
                        self.id,
                        f".{attr}() is not crash-safe (no tmp-file rename, "
                        "no fsync); use repro.context.store.atomic_write_text",
                    )
                elif attr == "open":
                    mode = _mode_constant(node, 0)
                    if mode is not None and _WRITE_FLAGS & set(mode):
                        yield diagnostic_at(
                            module,
                            node,
                            self.id,
                            f".open({mode!r}) writes without the tmp-file/"
                            "fsync/rename discipline; use repro.context."
                            "store.atomic_write_text so a crash cannot "
                            "leave a torn file",
                        )
