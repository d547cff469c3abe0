"""The word layer (words, prng, schemes, st32) imports nothing above it:
the heap, the runtime and the measurement modules build on it, never the
other way round."""

import ast
from pathlib import Path

import pytest

import tagbench

PACKAGE = Path(tagbench.__file__).parent
WORD_LAYER = ("words", "prng", "schemes", "st32")
ALLOWED = {"words", "prng", "schemes"}


def relative_imports(path):
    """The package modules that path imports with a relative import."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.module.split(".")[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("name", WORD_LAYER)
def test_word_layer_imports_stay_in_the_word_layer(name):
    imported = set(relative_imports(PACKAGE / (name + ".py")))
    assert imported <= ALLOWED, (name, sorted(imported - ALLOWED))
