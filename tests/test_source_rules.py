"""Rules on the package source itself: where quadrature rules are built,
which modules may name a panel layout, one kernel kind, units with
hbar = 1, and no def parameter left unread."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qbmag"


def _modules():
    return sorted(SRC.glob("*.py"))


def _lines(paths):
    """(path, line number, line) of each line of ``paths``."""
    return [(p, n, line) for p in paths for n, line in enumerate(p.read_text().splitlines(), 1)]


def test_quadrature_rules_are_built_only_in_rules():
    # every Gauss-Legendre and Gauss-Jacobi rule is built in _rules.py alone
    hits = {p.name for p, _, line in _lines(_modules()) if re.search(r"leggauss|legvander|eigh_tridiagonal", line)}
    assert hits <= {"_rules.py"}, "rule built outside src/qbmag/_rules.py: %s" % sorted(hits - {"_rules.py"})


def test_only_decoherence_decides_which_baths_share_a_pass():
    # which baths share a moment pass is decided in decoherence alone
    front = [SRC / "cli.py", SRC / "validation.py"]
    hits = {p.name for p, _, line in _lines(front) if re.search(r"_layout|\.layout", line)}
    assert not hits, "panel layout named in a front end: %s" % sorted(hits)


def test_the_package_has_one_kernel_kind():
    # nu is the one kernel: no dissipation kernel, no frequency shift and no
    # kernel kind; RegimeKind, the regime's .kind and numpy's sort kind stay
    pat = r"""dissipation|frequency_shift|"sin"|'sin'|\bkind\b"""
    hits = []
    for p, n, line in _lines(_modules()):
        kept = re.sub(r'\bkind="stable"', "", re.sub(r'\bkind\b[": ,]*RegimeKind', "", re.sub(r"\.kind\b", "", line)))
        if re.search(pat, kept):
            hits.append("%s:%d: %s" % (p.name, n, line))
    assert not hits, "a second kernel kind in src/qbmag:\n" + "\n".join(hits)


def test_the_package_works_in_units_with_hbar_1():
    # gamma/hbar is the only way hbar reaches an output, so no code reads,
    # takes or passes an hbar and no config key names it; the ClassVar
    # SystemParams.hbar = 1.0 names the unit for the benchmark's oracles
    pat = r"""\.hbar\b|\bhbar=|[(,] *hbar *[,)]|^ *hbar *:|["']hbar["']"""
    unit = re.compile(r" *hbar: ClassVar\[float\] = 1\.0")
    hits = [
        "%s:%d: %s" % (p.relative_to(SRC), n, line)
        for p, n, line in _lines(sorted(SRC.rglob("*.py")))
        if re.search(pat, line) and not (p == SRC / "dynamics.py" and unit.fullmatch(line))
    ]
    assert not hits, "an hbar input in src/qbmag:\n" + "\n".join(hits)


def test_no_def_takes_a_parameter_it_never_reads():
    # every parameter of every def is read somewhere in its body, nested
    # defs and lambdas included; a lambda's own parameters are exempt
    hits = []
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
                read = {
                    n.id
                    for stmt in node.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                hits += ["%s %s %s" % (path.name, node.name, p) for p in params if p not in read]
    assert not hits, "unread parameters in src/qbmag:\n" + "\n".join(hits)
