"""Every public name of the library has a caller inside the library.

A public module-level function or class, or a public method of a public
class, must be referenced somewhere in ``src/countcp`` outside its own
definition; a re-export from ``__init__`` or a mention in a docstring is
not a reference.  The exceptions are the documented entry points below.
Methods are matched by name alone, so one that shares its name with a
method of another type (``copy``, say) passes whatever its callers.
"""

import ast
from collections import Counter
from pathlib import Path

import countcp

SOURCE = Path(countcp.__file__).parent

ENTRY_POINTS = {
    "cli.entry",  # the console script
    "tensors.SparseCountTensor.from_entries",
    "tensors.EventTable.from_records",
    "cp.generalized_kl",  # the paper's two objectives
    "cp.poisson_log_likelihood",
}


def public_definitions(trees):
    """(qualified name, name, node) of each public module-level function or
    class and each public method of a public class."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def name_counts(node):
    """How often each identifier is read as a name or an attribute in ``node``."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def source_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def test_every_public_name_has_a_library_caller():
    trees = source_trees()
    everywhere = sum((name_counts(tree) for tree in trees.values()), Counter())
    uncalled = [
        qualified
        for qualified, name, node in public_definitions(trees)
        if everywhere[name] == name_counts(node)[name]
    ]
    assert sorted(set(uncalled) - ENTRY_POINTS) == []


def test_every_entry_point_exists():
    defined = {qualified for qualified, _, _ in public_definitions(source_trees())}
    assert ENTRY_POINTS <= defined
