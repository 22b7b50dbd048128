"""Every public function, method and property of the package has a production
caller.

Production code is src/quasiloc/*.py and the non-test modules of perfbench/;
the names checked are the package's.  Reachability is read from the AST, so
comments, docstrings and import lines never count as a use.  The roots are
the code that runs on import (module and class bodies, decorators, defaults)
and the dunder methods Python calls implicitly.  A function becomes reachable once reachable code loads its name
(or, for a module-level function, an attribute of that name, as in
`gates.check_scan`); a method or property once reachable code loads an
attribute of its name.  Two more kinds of name count as used: a function
that BENCHMARK.json's per_layer metrics cite as `layer.func.*`, and the names
in ALLOWED.  Names are matched without types, so a method shares its use
with every attribute of the same name.
"""

import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the time-decay fit and its result, until a time-decay acceptance check
# calls them
ALLOWED = {"fit_temporal_decay", "TemporalDecay"}


def production_files():
    src = sorted((ROOT / "src" / "quasiloc").glob("*.py"))
    bench = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))
    return src + bench


def benchmark_cited():
    """Function names that per_layer metrics of the form layer.func.* cite."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"].split(".")[1] for m in spec["per_layer"]
            if m["name"].count(".") >= 2}


def references(nodes):
    """(loaded names, loaded attributes) anywhere under nodes."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) \
                    and isinstance(sub.ctx, ast.Load):
                attrs.add(sub.attr)
    return names, attrs


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _import_time(fn):
    """Parts of a def evaluated when it is defined, not when it is called."""
    return [*fn.decorator_list, *fn.args.defaults,
            *(d for d in fn.args.kw_defaults if d is not None)]


def scan(paths, extra=(), root=ROOT):
    """Public defs no root reaches, as 'file:line qualname' strings with the
    file relative to root."""
    roots, defs = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = path.relative_to(root)
        for stmt in tree.body:
            if _is_def(stmt):
                defs.append((rel, stmt, None))
                roots += _import_time(stmt)
            elif isinstance(stmt, ast.ClassDef):
                roots += [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                for member in stmt.body:
                    if not _is_def(member):
                        roots.append(member)
                        continue
                    roots += _import_time(member)
                    if member.name.startswith("__") \
                            and member.name.endswith("__"):
                        roots.append(member)
                    else:
                        defs.append((rel, member, stmt.name))
            else:
                roots.append(stmt)
    names, attrs = references(roots)
    names |= set(extra)
    attrs |= set(extra)
    pending = list(defs)
    while True:
        live = [d for d in pending
                if d[1].name in attrs
                or (d[2] is None and d[1].name in names)]
        if not live:
            break
        pending = [d for d in pending if d not in live]
        more_names, more_attrs = references([fn for _, fn, _ in live])
        names |= more_names
        attrs |= more_attrs
    return sorted(
        f"{rel}:{fn.lineno} {owner + '.' if owner else ''}{fn.name}"
        for rel, fn, owner in pending
        if not fn.name.startswith("_")
        and not (owner or "").startswith("_")
        and owner not in ALLOWED)


def test_every_public_name_has_a_production_caller():
    unused = [u for u in scan(production_files(), benchmark_cited() | ALLOWED)
              if u.startswith("src/")]
    assert not unused, "no production caller:\n" + "\n".join(unused)


def test_scan_sees_through_dead_callers_and_docstrings(tmp_path):
    # a helper whose only caller is itself unused, a name mentioned only in
    # a docstring, and a method only an unused function reads are all
    # reported; module-level code, a dunder and an attribute use are roots
    mod = tmp_path / "probe.py"
    mod.write_text(
        "def helper():\n"
        "    return 1\n\n\n"
        "def dead():\n"
        "    '''calls mentioned()'''\n"
        "    return helper() + Box().size\n\n\n"
        "def mentioned():\n"
        "    return 0\n\n\n"
        "def used():\n"
        "    return Box().width\n\n\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return used()\n\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n\n"
        "    @property\n"
        "    def width(self):\n"
        "        return 3\n\n\n"
        "len(Box())\n")
    assert scan([mod], root=tmp_path) == [
        "probe.py:1 helper", "probe.py:10 mentioned", "probe.py:23 Box.size",
        "probe.py:5 dead"]
