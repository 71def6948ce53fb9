"""Rules on the package source, read from its syntax trees: each test lists
the offending `path:line` sites, so an empty list is a pass."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mukailat"


def _hits(paths, offends):
    """`path:line` of every node n of the given modules with offends(p, n)."""
    return ["%s:%d" % (p.relative_to(SRC.parents[1]), n.lineno)
            for p in sorted(paths)
            for n in ast.walk(ast.parse(p.read_text()))
            if offends(p, n)]


def _imports(n, module):
    """Whether n is an absolute import of `module` or of one of its
    submodules."""
    if isinstance(n, ast.Import):
        return any(a.name.split(".")[0] == module for a in n.names)
    return (isinstance(n, ast.ImportFrom) and n.level == 0
            and n.module.split(".")[0] == module)


def test_no_assert_statement():
    """python -O strips assert statements, so none may carry a check."""
    assert _hits(SRC.rglob("*.py"),
                 lambda p, n: isinstance(n, ast.Assert)) == []


def test_only_kernels_imports_numpy():
    assert _hits(SRC.glob("*.py"),
                 lambda p, n: p.name != "kernels.py"
                 and _imports(n, "numpy")) == []


def test_only_intmat_decides_int():
    """No module but intmat decides that a value is an int, and none spells
    {int}."""
    def names_int(n):
        elts = n.elts if isinstance(n, (ast.Tuple, ast.Set, ast.List)) \
            else [n]
        return any(isinstance(e, ast.Name) and e.id == "int" for e in elts)

    def calls(n, f):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == f)

    def decides(n):
        if isinstance(n, ast.Compare):
            sides = [n.left, *n.comparators]
            return (any(calls(s, "type") for s in sides)
                    and any(map(names_int, sides)))
        return calls(n, "isinstance") and names_int(n.args[1])

    assert _hits(SRC.glob("*.py"),
                 lambda p, n: isinstance(n, ast.Set) and names_int(n)
                 or p.name != "intmat.py" and decides(n)) == []


def test_only_intmat_and_discriminant_import_fractions():
    """Fraction is made only where a value leaves as a rational: the
    rational solvers of intmat and the q/b values of discriminant."""
    assert _hits(SRC.glob("*.py"),
                 lambda p, n: p.name not in ("intmat.py", "discriminant.py")
                 and _imports(n, "fractions")) == []


def test_one_rule_for_which_lattice():
    """Lattices are the same when IntegerLattice.__eq__ says so (their grams
    are equal): outside lattices.py no comparison reads a `.gram`, and none
    tests an `.ambient` by identity."""
    def reads(sides, attr):
        return any(isinstance(s, ast.Attribute) and s.attr == attr
                   for s in sides)

    def offends(p, n):
        if not isinstance(n, ast.Compare):
            return False
        sides = [n.left, *n.comparators]
        return (p.name != "lattices.py" and reads(sides, "gram")
                or any(isinstance(op, (ast.Is, ast.IsNot)) for op in n.ops)
                and reads(sides, "ambient"))

    assert _hits(SRC.glob("*.py"), offends) == []


def test_one_rational_elimination():
    """solve_rational is the one function of intmat that names Fraction:
    inv_rational solves its columns with it, so intmat spells one
    elimination over Q."""
    path = SRC / "intmat.py"
    solver = next(n for n in ast.parse(path.read_text()).body
                  if getattr(n, "name", None) == "solve_rational")
    assert _hits([path], lambda p, n: isinstance(n, ast.Name)
                 and n.id == "Fraction"
                 and not solver.lineno <= n.lineno <= solver.end_lineno) == []
