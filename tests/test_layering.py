"""The import layers of the package, read from its source.

A module of src/artinpal may import, at module level or inside a function,
only modules on a lower layer:

    errors <- coxeter <- {weyl, monoid, oracle} <- group
           <- {orderings, palindromes} <- cli

and no module reads another module's private (_-prefixed) names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "artinpal"

LAYERS = [("errors",), ("coxeter",), ("weyl", "monoid", "oracle"), ("group",),
          ("orderings", "palindromes"), ("cli", "__init__"), ("__main__",)]
LAYER = {name: k for k, names in enumerate(LAYERS) for name in names}
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")


def _package_imports(tree):
    """(module, imported names, local name of the module) per package
    import, local ones included: `from . import a as b` gives (a, (), b),
    `from .a import x` gives (a, (x,), None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if (node.module or "").split(".")[0] != "artinpal":
                    continue
                module = node.module.partition(".")[2]
            else:
                module = node.module or ""
            if module:
                yield (module.split(".")[0],
                       tuple(alias.name for alias in node.names), None)
            else:
                yield from ((alias.name, (), alias.asname or alias.name)
                            for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "artinpal":
                    yield alias.name.partition(".")[2] or "__init__", (), None


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("name", MODULES)
def test_imports_follow_the_layers(name):
    tree = _tree(name)
    above = sorted({module for module, _, _ in _package_imports(tree)
                    if LAYER[module] >= LAYER[name]})
    assert not above, f"{name} imports {above} from its own layer or above"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_of_other_modules(name):
    tree = _tree(name)
    modules = set()  # local names bound to package modules
    reads = []
    for module, names, bound in _package_imports(tree):
        reads += [f"{module}.{n}" for n in names if _private(n)]
        modules.add(bound)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            reads.append(f"{node.value.id}.{node.attr}")
    assert not reads, f"{name} reads {sorted(set(reads))}"
