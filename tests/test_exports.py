"""Every exported name has a user in the package besides its own definition.

References count when they come from a live owner: module-level code, a
top-level function or class that is not exported, or an exported name that
is itself used. An exported function called only by another unused export is
therefore unused too. `verify.py` is left out: it checks the library, so a
name that only its oracles call has no user on the model path.
"""

import ast
from pathlib import Path

import gyroshot

PACKAGE = Path(gyroshot.__file__).parent
SKIPPED_MODULES = {"__init__.py", "verify.py"}
# the finite-difference oracle verify runs; exported so callers can check
# their own gradients with it
CHECKING_TOOLS = {"finite_diff_check"}


def _owner(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


def references_by_owner() -> list[tuple[str | None, set]]:
    """(top-level owner, names and attributes its code refers to) per statement."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in SKIPPED_MODULES:
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
            out.append((_owner(stmt), refs))
    return out


def test_every_export_has_a_user_in_the_package():
    exported = set(gyroshot.__all__)
    owners = references_by_owner()
    used = set()
    while True:
        live = [(o, refs) for o, refs in owners if o not in exported or o in used]
        reached = {n for o, refs in live for n in refs if n in exported and n != o}
        if reached <= used:
            break
        used |= reached
    assert sorted(exported - used - CHECKING_TOOLS) == []
