"""Every exported name, and every public function of `autodiff`, has a user
in the package besides its own definition.

References count when they come from a live owner: module-level code, a
top-level function or class that is not checked here, or a checked name
that is itself used. An exported function called only by another unused
export is therefore unused too. `verify.py` is left out: it checks the
library, so a name that only its oracles call has no user on the model path.

An autodiff function is referred to as a bare name inside `autodiff.py`, or
as an `ad.X` or `autodiff.X` attribute elsewhere, so that `np.broadcast_to`
does not count as a use of an op of the same name. Every public autodiff
function but `finite_diff_check` must be reached, called with a Var, by a
taped episode of some variant: an op that only ever sees arrays keeps an
adjoint that nothing runs. `Var` has no arithmetic operators, so every
taped expression names its op and this count sees all of them.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import gyroshot
from gyroshot import autodiff as ad
from gyroshot.episodes import SyntheticConfig, generate_synthetic, sample_episode
from gyroshot.geometry import BallConfig
from gyroshot.netmods import ModelBundle, ModelConfig
from gyroshot.train import VARIANTS, TrainConfig, episode_forward

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


def _run_taped_episodes():
    """Forward and backward of a default train-mode episode of each variant."""
    ball = BallConfig(c=0.7)
    dataset = generate_synthetic(SyntheticConfig(), ball)
    for variant in sorted(VARIANTS):
        cfg = TrainConfig(ball=ball).variant(variant)
        bundle = ModelBundle(ModelConfig(in_dim=8, grid=(3, 3)), seed=cfg.seed)
        tape = ad.Tape()
        modules = bundle.modules()
        params = {m: {k: tape.var(v) for k, v in modules[m].params.items()}
                  for m in cfg.spec.modules}
        loss, _ = episode_forward(sample_episode(dataset, cfg.episode_spec()), bundle, cfg,
                                  params=params, train=True, rng=np.random.default_rng(0))
        ad.backward(loss)


def test_var_has_no_arithmetic_operators():
    """A `Var` is a plain tape node: arithmetic on it raises TypeError, from
    either side and against an ndarray too, so every taped expression names
    its `ad` op and none builds an object array."""
    assert sorted(name for name, f in vars(ad.Var).items()
                  if inspect.isfunction(f) and name.startswith("__")) == ["__init__", "__repr__"]
    assert ad.Var.__array_ufunc__ is None
    v = ad.Tape().var(np.arange(3.0))
    for expr in (lambda: v + v, lambda: v * 2.0, lambda: 2.0 * v,
                 lambda: np.ones(3) * v, lambda: v / v):
        with pytest.raises(TypeError):
            out = expr()
            assert not (isinstance(out, np.ndarray) and out.dtype == object)


def _holds_var(x):
    if isinstance(x, ad.Var):
        return True
    return isinstance(x, (list, tuple)) and any(_holds_var(item) for item in x)


def test_every_autodiff_function_is_called_with_a_var_by_a_taped_episode(monkeypatch):
    """autodiff keeps only ops the model records: a default train-mode
    episode of some variant, forward and backward, calls each public
    function but the finite-difference oracle with a Var among its
    arguments (`record` with one among its operands)."""
    called = set()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            if _holds_var(args + tuple(kwargs.values())):
                called.add(name)
            return f(*args, **kwargs)
        return wrapper

    names = {f[len("ad."):] for f in AUTODIFF_FUNCTIONS} - {"finite_diff_check"}
    for name in names:
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    _run_taped_episodes()
    assert sorted(names - called) == []
