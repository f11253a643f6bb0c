"""Every setting and every function has a reader: each documented config
default is read outside config.py, the CLI's training plan has the plan's
own defaults, and each function in the package is named somewhere besides
its definition."""

import ast
import re
from pathlib import Path

from synthvc import cli, config
from synthvc import trainer as tr
from synthvc.config import RunConfig

PKG = Path(config.__file__).parent
PERFBENCH = PKG.parent.parent / "perfbench"
# functions only tests call, each with its reason
NO_CALLER_NEEDED = {
    # the test oracle for the world's recoverability: a decoder that knows the
    # templates shows that >= 99% of rendered symbols can be read back
    "nearest_template_decode",
}


def test_every_config_key_is_read_outside_config():
    sources = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PKG.glob("*.py"))
                        if p.name != "config.py")
    unread = [k for k in config.DEFAULTS
              if f'"{k}"' not in sources and f"'{k}'" not in sources]
    assert unread == []


def test_cli_plan_defaults_are_the_plan_defaults():
    assert cli._plan(RunConfig()) == tr.TrainPlan()


def test_every_function_is_named_outside_its_definition():
    """A function or method (dunders aside) whose name appears only once
    across the package and the benchmark has no caller."""
    files = sorted(PKG.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in files)
    defined = set()
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
    dead = [name for name in sorted(defined - NO_CALLER_NEEDED)
            if not (name.startswith("__") and name.endswith("__"))
            and len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert dead == []
