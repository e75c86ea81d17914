"""The package's exported names."""

import ast

import nullwave


def test_all_is_the_public_names_the_package_imports():
    with open(nullwave.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names
                if not (alias.asname or alias.name).startswith("_")}
    assert len(set(nullwave.__all__)) == len(nullwave.__all__)
    assert set(nullwave.__all__) == imported | {"__version__"}
    # each name resolves, as a star import reads them
    namespace = {}
    exec("from nullwave import *", namespace)
    for name in nullwave.__all__:
        assert namespace[name] is getattr(nullwave, name)
