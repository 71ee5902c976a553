import ast
import re
from collections import Counter
from pathlib import Path

import canids

SRC = Path(canids.__file__).resolve().parent


def test_pyproject_version_is_the_package_version():
    """pyproject.toml is read with a regex: Python 3.10 has no tomllib."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M)
    assert version == canids.__version__


def module_level_names(tree):
    """The names a module's top-level statements define or import."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_all_is_exactly_the_public_names_init_binds():
    exported = canids.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(canids, name) for name in exported)
    bound = module_level_names(ast.parse((SRC / "__init__.py").read_text()))
    assert set(exported) == {name for name in bound if not name.startswith("_")}


def test_every_private_module_name_is_used():
    """A private function, class or constant that nothing in the package
    refers to besides its definition is dead code."""
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    words = Counter(re.findall(r"\w+", "\n".join(texts.values())))
    defined = Counter()
    for text in texts.values():
        tree = ast.parse(text)
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        defined.update(name for name in module_level_names(tree)
                       if name.startswith("_") and not name.startswith("__") and name not in imported)
    unused = sorted(name for name, count in defined.items() if words[name] <= count)
    assert unused == []
