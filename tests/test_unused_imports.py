"""No unused module-level import in the package, the tools and the two
entry scripts. An import line marked ``# noqa: F401`` (alone or in a
code list) is a deliberate re-export or a self-registering import and
is exempt."""

import ast
import pathlib
import re
import warnings

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_NOQA = re.compile(r"#\s*noqa:[^#\n]*\bF401\b")


def _files():
    for d in ("pdf_oxide_ray", "tools"):
        yield from sorted((_ROOT / d).rglob("*.py"))
    yield _ROOT / "__ray_entry__.py"
    yield _ROOT / "bench.py"


def _unused(path: pathlib.Path) -> list:
    src = path.read_text()
    with warnings.catch_warnings():  # not this scan's finding
        warnings.simplefilter("ignore")
        tree = ast.parse(src)
    lines = src.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        if _NOQA.search("\n".join(lines[node.lineno - 1:node.end_lineno])):
            continue
        for a in node.names:
            bound[(a.asname or a.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are exported
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return [f"{path.relative_to(_ROOT)}:{line} {name}"
            for name, line in bound.items() if name not in used]


def test_modules_compile_without_warnings():
    """An invalid escape like ``'\\s'`` in a plain string warns on every
    import and is an error in later Pythons."""
    bad = []
    for path in _files():
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)
            warnings.simplefilter("error", DeprecationWarning)
            try:
                compile(path.read_text(), str(path), "exec")
            except (SyntaxError, SyntaxWarning, DeprecationWarning) as exc:
                bad.append(f"{path.relative_to(_ROOT)}: {exc}")
    assert not bad, "\n".join(bad)


def test_no_unused_module_level_imports():
    bad = [u for p in _files() for u in _unused(p)]
    assert not bad, "unused imports:\n" + "\n".join(bad)
