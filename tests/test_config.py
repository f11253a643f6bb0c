"""Every setting and every function has a reader, every default is written
once, and every trained model updates through one step: each documented
config default is read outside config.py, no parameter the CLI fills from the
config restates a default, each function in the package is referenced
somewhere besides its definition, only `optim.descend` opens a tape, only
`streamlm` names the LM's token ids and parameters, every error class is
raised and has an exit code, the benchmark's tracer still finds every
function it names, and a config file sets each key at most once."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from synthvc import cli, config, errors
from synthvc import streamlm as sl

PKG = Path(config.__file__).parent
PERFBENCH = PKG.parent.parent / "perfbench"
# functions only tests call, each with its reason; test-only code lives in
# tests/harness.py, so none is allowed here
NO_CALLER_NEEDED: set[str] = set()
# the functions in the package that may construct a tape: the one descent
# step every trained model takes
TAPE_OWNERS = {("optim.py", "descend")}
# (function, parameter) pairs that the CLI fills from the config but that keep
# a default, each with its reason
DEFAULT_KEPT = {
    # evaluate_conversion decodes greedily by design and names no sampling
    # setting, so convert's sampling arguments default to greedy decoding
    ("convert", "mode"), ("convert", "temperature"), ("convert", "top_k"),
}


def test_every_config_key_is_read_outside_config():
    sources = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PKG.glob("*.py"))
                        if p.name != "config.py")
    unread = [k for k in config.DEFAULTS
              if f'"{k}"' not in sources and f"'{k}'" not in sources]
    assert unread == []


def _reads_cfg(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
               and n.value.id == "cfg" for n in ast.walk(node))


def _resolve(func: ast.expr):
    """The object a call in cli.py names: `f` or `module.f` in cli's namespace."""
    if isinstance(func, ast.Name):
        return getattr(cli, func.id)
    assert isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name), \
        f"cannot resolve the call at cli.py line {func.lineno}"
    return getattr(getattr(cli, func.value.id), func.attr)


def test_no_parameter_the_cli_fills_from_the_config_has_a_default():
    """config.DEFAULTS is the one home of a default: a keyword argument whose
    value reads cfg["..."] must land on a parameter or dataclass field with
    no default of its own, which could drift from the config's."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    restated, kept = [], set()
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        filled = [kw.arg for kw in call.keywords if kw.arg and _reads_cfg(kw.value)]
        if not filled:
            continue
        target = _resolve(call.func)
        params = inspect.signature(target).parameters
        for name in filled:
            if params[name].default is inspect.Parameter.empty:
                continue
            if (target.__name__, name) in DEFAULT_KEPT:
                kept.add((target.__name__, name))
            else:
                restated.append(f"{target.__name__}.{name} (cli.py line {call.lineno})")
    assert restated == []
    assert kept == DEFAULT_KEPT, "an allowance no call needs any more"


def _perfbench_names() -> set[str]:
    """The last dotted part of every identifier-like string in a perfbench
    tuple: the tracer's LAYERS entries and the workloads' boundaries."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Tuple):
                for elt in node.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str) \
                            and all(p.isidentifier() for p in elt.value.split(".")):
                        names.add(elt.value.rpartition(".")[2])
    return names


def test_every_function_is_named_outside_its_definition():
    """A function or method (dunders aside) that no code in the package or
    the benchmark reads by name or attribute, and no perfbench LAYERS or
    boundary string names, has no caller. A docstring or a same-named
    dataclass field does not count."""
    files = sorted(PKG.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    defined, used = set(), _perfbench_names()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif path.parent == PKG and isinstance(node, (ast.FunctionDef,
                                                          ast.AsyncFunctionDef)):
                defined.add(node.name)
    dead = [name for name in sorted(defined - used - NO_CALLER_NEEDED)
            if not (name.startswith("__") and name.endswith("__"))]
    assert dead == []
    assert NO_CALLER_NEEDED <= defined, "an allowance for a function that is gone"


def _tape_calls(node: ast.AST) -> int:
    return sum(isinstance(n, ast.Call) and "Tape" in (getattr(n.func, "id", None),
                                                      getattr(n.func, "attr", None))
               for n in ast.walk(node))


def test_only_descend_constructs_a_tape():
    """A second place that opens a tape would fork the training step: its
    own divergence handling, backward and optimizer step."""
    owners = set()
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {n.name: _tape_calls(n) for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and (path.name, n.name) in TAPE_OWNERS}
        assert _tape_calls(tree) == sum(allowed.values()), \
            f"{path.name} constructs a Tape outside {sorted(TAPE_OWNERS)}"
        owners |= {(path.name, name) for name, calls in allowed.items() if calls}
    assert owners == TAPE_OWNERS, "an allowance for a function that opens no tape"


def test_only_streamlm_names_lm_token_ids_and_parameters():
    """The LM's token layout is streamlm's decision: no other module names a
    TEXT_* id, or holds a string that is an LM parameter name (a key of
    `init_lm`), which would be a second copy of that decision."""
    cfg = config.RunConfig()
    lm_names = set(sl.init_lm(sl.LMConfig(
        dim=cfg["lm.dim"], heads=cfg["lm.heads"], blocks=cfg["lm.blocks"],
        intermediate=cfg["lm.intermediate"],
        layout=sl.StreamLayout(cfg["codec.layers"], cfg["codec.codebook"])), seed=0))
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.name == "streamlm.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(name, str) and name.startswith("TEXT_"):
                found.append(f"{path.name}:{node.lineno} {name}")
            elif isinstance(node, ast.Constant) and node.value in lm_names:
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []


def test_every_error_class_is_raised_and_has_an_exit_code():
    """Each SynthVCError subclass in errors.py is named by a `raise` in the
    package, and `cli._ERROR_CODES` classifies it: a class nothing raises is
    dead code, and one the CLI cannot classify has no exit code."""
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.SynthVCError)
               and c is not errors.SynthVCError and c.__module__ == errors.__name__]
    raised = set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    assert [c.__name__ for c in classes if c.__name__ not in raised] == []
    assert [c.__name__ for c in classes
            if not any(issubclass(c, types) for types, _ in cli._ERROR_CODES)] == []


def test_config_file_that_sets_a_key_twice_names_both_lines(tmp_path):
    """The second value does not silently replace the first."""
    path = tmp_path / "twice.cfg"
    path.write_text("train.lr = 0.001\n# a comment\ntrain.lr = 0.002\n", encoding="utf-8")
    with pytest.raises(errors.ConfigError,
                       match=r"twice\.cfg:3: train\.lr is set again, after line 1$"):
        config.RunConfig.from_file(path)


def test_perfbench_selftest_passes():
    """The tracer patches every function perfbench names, so a rename in
    src/ that breaks `perfbench/run.py --trace 1` fails here, not at the
    next benchmark run."""
    done = subprocess.run([sys.executable, "selftest.py"], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
