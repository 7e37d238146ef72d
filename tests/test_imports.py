"""Every name a module of the package imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "embedjive"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in ``source`` that no name
    expression reads; ``from __future__`` imports bind none."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nos.sep\nd()\n"
    assert unused_imports(source) == ["b (line 3)"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# perfbench/traced_cli.py times these functions by wrapping them at the
# embedjive.cli global that the CLI calls them through; a name the CLI stops
# calling that way would leave its per-layer metrics at 0.
TRACED_CLI_NAMES = ["parse_embedding", "write_embedding", "align_vocabularies", "preprocess", "estimate_signal_rank",
                    "select_joint_rank", "jive_fit", "variance_explained", "read_corpus_tsv", "train_linear",
                    "evaluate"]


def test_cli_calls_the_traced_names_as_globals():
    import embedjive.cli

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert [name for name in TRACED_CLI_NAMES if not callable(vars(embedjive.cli).get(name))] == []
    assert [name for name in TRACED_CLI_NAMES if name not in called] == []
