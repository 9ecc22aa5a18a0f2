"""The package holds only what its commands run: every public top-level
function, class and constant in `src/tweetembed` is used somewhere in the
package outside its own definition. Helpers that only tests need live in
`tests/oracles.py`. Only `manifest.py` packs binary file framing. Each
command takes exactly the options listed here."""

import argparse
import ast
from pathlib import Path

import tweetembed
from tweetembed.cli import build_parser

PACKAGE = Path(tweetembed.__file__).parent
# Entry points called from outside the package.
ENTRY_POINTS = {"cli.run"}


def _top_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or class's
    name, or each name a top-level assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def test_every_public_definition_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    defined: dict[str, ast.AST] = {}
    for module, tree in trees.items():
        for node in tree.body:
            for name in _top_level_names(node):
                if not name.startswith("_") and f"{module}.{name}" not in ENTRY_POINTS:
                    defined[f"{module}.{name}"] = node
    used: set[str] = set()
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                used.update(key for key, definition in defined.items()
                            if key.endswith("." + name) and definition is not top)
    assert sorted(set(defined) - used) == []


def test_only_manifest_frames_binary_files():
    # `manifest.write_container` and `read_container` frame every binary
    # file; a module that packs bytes itself would frame a fourth by hand.
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "struct" in names:
                importers.append(path.name)
    assert importers == ["manifest.py"]


# Every command also takes --deterministic and --threads. --threads is
# parsed and ignored (counting runs in one process); it stays while
# perfbench/run.py still passes it. Only the commands that read --seed
# take it.
COMMON_OPTIONS = {"--deterministic", "--threads"}
MODEL_OPTIONS = {"--seed", "--epochs", "--batch-size", "--learning-rate", "--emb-dim",
                 "--ctx-dim"}
COMMAND_OPTIONS = {
    "ingest": {"--out-db", "--out-dict"},
    "dataset": {"--vocab-size", "--fraction", "--validation-ratio", "--include-boundary", "--out",
                "--seed"},
    "train": {"--out-checkpoint", "--out-log", *MODEL_OPTIONS},
    "export": {"--vocab", "--out"},
    "eval": {"--classes", "--pairs", "--membership-thresholds", "--distinction-thresholds",
             "--equivalence-thresholds", "--out"},
    "grid": {"--out-dir", "--vocab-sizes", "--fractions", "--validation-ratio",
             "--include-boundary", "--classes", "--pairs", *MODEL_OPTIONS},
}


def test_each_command_takes_exactly_its_listed_options():
    (commands,) = [action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {name: {option for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)
                      for option in action.option_strings}
               for name, parser in commands.choices.items()}
    assert options == {name: listed | COMMON_OPTIONS for name, listed in COMMAND_OPTIONS.items()}
