"""Every setting and every function has a reader, every default is written
once, and every trained model updates through one step: each documented
config default is read outside config.py, no parameter the CLI fills from the
config restates a default, each function in the package is referenced
somewhere besides its definition, only `optim.descend` and the gradient
checker open a tape, and the benchmark's tracer still finds every function it
names."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

from synthvc import cli, config

PKG = Path(config.__file__).parent
PERFBENCH = PKG.parent.parent / "perfbench"
# functions only tests call, each with its reason
NO_CALLER_NEEDED = {
    # the test oracle for the world's recoverability: a decoder that knows the
    # templates shows that >= 99% of rendered symbols can be read back
    "nearest_template_decode",
    # the finite-difference gradient checker every differentiable op is tested with
    "grad_check",
    # scalar reductions and the product that turn an op's output into a loss
    # in those gradient checks
    "sum_all", "mean_all", "mul",
}
# the functions in the package that may construct a tape: the one descent
# step every trained model takes, and the gradient checker
TAPE_OWNERS = {("optim.py", "descend"), ("numerics.py", "grad_check")}
# (function, parameter) pairs that the CLI fills from the config but that keep
# a default, each with its reason
DEFAULT_KEPT = {
    # evaluate_conversion decodes greedily by design and names no sampling
    # setting, so generate's sampling arguments default to greedy decoding
    ("generate", "mode"), ("generate", "temperature"), ("generate", "top_k"),
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


def test_only_descend_and_grad_check_construct_a_tape():
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


def test_perfbench_selftest_passes():
    """The tracer patches every function perfbench names, so a rename in
    src/ that breaks `perfbench/run.py --trace 1` fails here, not at the
    next benchmark run."""
    done = subprocess.run([sys.executable, "selftest.py"], cwd=PERFBENCH,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
