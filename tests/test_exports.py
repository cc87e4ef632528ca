"""Every exported name, and every public function of `autodiff`, has a user
in the package besides its own definition.

References count when they come from a live owner: module-level code, a
top-level function or class that is not checked here, or a checked name
that is itself used. An exported function called only by another unused
export is therefore unused too. `verify.py` is left out: it checks the
library, so a name that only its oracles call has no user on the model path.

An autodiff function is referred to as a bare name inside `autodiff.py`, or
as an `ad.X` or `autodiff.X` attribute elsewhere, so that `np.broadcast_to`
does not count as a use of an op of the same name.
"""

import ast
import inspect
from pathlib import Path

import gyroshot
from gyroshot import autodiff as ad

PACKAGE = Path(gyroshot.__file__).parent
SKIPPED_MODULES = {"__init__.py", "verify.py"}
AUTODIFF_ALIASES = {"ad", "autodiff"}
#: "ad.X" for every public function defined in autodiff
AUTODIFF_FUNCTIONS = {
    f"ad.{name}" for name, f in vars(ad).items()
    if inspect.isfunction(f) and f.__module__ == ad.__name__ and not name.startswith("_")
}
# the finite-difference oracle verify runs; exported so callers can check
# their own gradients with it
CHECKING_TOOLS = {"finite_diff_check", "ad.finite_diff_check"}


def _owner(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
            and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


def references_by_owner() -> list[tuple[set, set]]:
    """(names the top-level owner goes by, names and attributes its code
    refers to) per statement; autodiff functions appear as "ad.X"."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in SKIPPED_MODULES:
            continue
        in_autodiff = path.name == "autodiff.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = _owner(stmt)
            names = set() if owner is None else {owner}
            if in_autodiff and owner is not None:
                names.add(f"ad.{owner}")
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add(node.id)
                    if in_autodiff:
                        refs.add(f"ad.{node.id}")
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                    if isinstance(node.value, ast.Name) and node.value.id in AUTODIFF_ALIASES:
                        refs.add(f"ad.{node.attr}")
            out.append((names, refs))
    return out


def test_every_export_has_a_user_in_the_package():
    checked = set(gyroshot.__all__) | AUTODIFF_FUNCTIONS
    owners = references_by_owner()
    used = set()
    while True:
        live = [(names, refs) for names, refs in owners
                if not names & checked or names & used]
        reached = {n for names, refs in live for n in refs if n in checked and n not in names}
        if reached <= used:
            break
        used |= reached
    assert sorted(checked - used - CHECKING_TOOLS) == []
