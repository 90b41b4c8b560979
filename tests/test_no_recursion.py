"""No function in the library calls itself.

Recursion depth follows the input (path length, chain length), so a deep
enough graph would overflow the interpreter stack on a production path. This
test parses every module and flags a function that calls itself: a bare-name
call inside a function or closure of that name, or ``self.<name>(...)`` inside
a method of that name. A bare-name call inside a method reaches a module or
builtin name, not the method, so a method may call the builtin or module
function it is named after. Only the brute-force path oracle may recurse.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lmgraphs"

# (module, qualified function name) pairs allowed to recurse.
ALLOWED = {("separation.py", "_simple_paths.walk")}


def _self_calls(module: ast.Module) -> list[tuple[str, int]]:
    found: list[tuple[str, int]] = []

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if in_class:
                        hit = (
                            isinstance(f, ast.Attribute)
                            and f.attr == child.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id == "self"
                        )
                    else:
                        hit = isinstance(f, ast.Name) and f.id == child.name
                    if hit:
                        found.append((name, call.lineno))
                visit(child, f"{name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(module, "", False)
    return found


def test_lint_flags_self_calls():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def walk():\n        walk()\n    walk()\n"
        "class P:\n    def reversed(self):\n        return reversed([])\n"
        "    def again(self):\n        self.again()\n"
    )
    assert [name for name, _ in _self_calls(ast.parse(source))] == ["f", "g.walk", "P.again"]


def test_library_has_no_recursion():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for name, line in _self_calls(ast.parse(path.read_text(), str(path))):
            if (path.name, name) not in ALLOWED:
                offenders.append(f"{path.name}:{line} {name}")
    assert offenders == []
