"""Every public function, method and property of the package has a production
caller, and every defaulted parameter a production call that sets it.

Production code is src/quasiloc/*.py and the non-test modules of perfbench/;
the names checked are the package's.  Reachability is read from the AST, so
comments, docstrings and import lines never count as a use.  The roots are
the code that runs on import (module and class bodies, decorators, defaults)
and the dunder methods Python calls implicitly.  A function becomes reachable once reachable code loads its name
(or, for a module-level function, an attribute of that name, as in
`gates.check_scan`); a method or property once reachable code loads an
attribute of its name.  One more kind of name counts as used: a function
that BENCHMARK.json's per_layer metrics cite as `layer.func.*`.  Names
are matched without types, so a method shares its use with every
attribute of the same name.

The parameter check reads every call in production code and matches it to
the package's defs by the called name alone (a bare name or the last
attribute; a class name also calls its __init__).  A call sets a defaulted
parameter by keyword, by position (after self or cls for a method) or
through * or **.  The pairs in ALLOWED_DEFAULTS need no production setter.
"""

import ast
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the benchmark's own tests rebuild a scales row without its latest sample
# time (test_row_gate_catches_a_dropped_sample_time)
ALLOWED_DEFAULTS = {("scale_decay_constants", "t_multipliers")}


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
        and not (owner or "").startswith("_"))


def test_every_public_name_has_a_production_caller():
    unused = [u for u in scan(production_files(), benchmark_cited())
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


def _defaulted(fn, bound):
    """(name, index) of fn's defaulted parameters: index is the position a
    call passes it at, after the `bound` self or cls, and None for a
    keyword-only one."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    return ([(a.arg, i - bound) for i, a in enumerate(positional)
             if i >= first]
            + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                             fn.args.kw_defaults)
               if d is not None])


def _package_defs(node, owner=None):
    """(def, name of the class whose body holds it, or None) for every def
    under node, nested ones included."""
    out = []
    for child in ast.iter_child_nodes(node):
        if _is_def(child):
            out.append((child, owner))
            out += _package_defs(child)
        elif isinstance(child, ast.ClassDef):
            out += _package_defs(child, child.name)
        else:
            out += _package_defs(child)
    return out


def _calls(paths):
    """{called name: [(positional count, keywords, uses * or **)]}."""
    out = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) \
                else getattr(f, "attr", None)
            star = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            out.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, star))
    return out


def unset_defaults(package, production, root=ROOT):
    """Defaulted parameters of the package's defs that no production call
    sets, as 'file:line qualname(param, ...)' strings with the file
    relative to root."""
    calls = _calls(production)
    out = []
    for path in package:
        for fn, owner in _package_defs(ast.parse(path.read_text())):
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            names = {fn.name, owner} if fn.name == "__init__" else {fn.name}
            sites = [c for n in names for c in calls.get(n, [])]
            unset = [p for p, i in _defaulted(fn, int(bool(owner)
                                                     and not static))
                     if (fn.name, p) not in ALLOWED_DEFAULTS
                     and not any(star or p in keywords
                                 or (i is not None and i < n_args)
                                 for n_args, keywords, star in sites)]
            if unset:
                qual = f"{owner}.{fn.name}" if owner else fn.name
                out.append(f"{path.relative_to(root)}:{fn.lineno} "
                           f"{qual}({', '.join(unset)})")
    return sorted(out)


def test_every_default_has_a_production_setter():
    package = sorted((ROOT / "src" / "quasiloc").glob("*.py"))
    unset = unset_defaults(package, production_files())
    assert not unset, "no production call sets:\n" + "\n".join(unset)


def test_default_scan_sees_every_way_a_call_sets_a_parameter(tmp_path):
    # keyword, position, position after self, * and ** set a default, and a
    # class call sets its __init__'s; a call in a docstring does not, nor a
    # positional one that stops short of the parameter
    mod = tmp_path / "probe.py"
    mod.write_text(
        "def by_keyword(a, b=1, *, c=2):\n"
        "    return a + b + c\n\n\n"
        "def by_position(a, b=1, c=2):\n"
        "    '''by_position(0, 1, c=2)'''\n"
        "    return a + b + c\n\n\n"
        "def by_star(a=0, *, b=1):\n"
        "    return a + b\n\n\n"
        "class Box:\n"
        "    def __init__(self, size=1):\n"
        "        self.size = size\n\n"
        "    def grow(self, by=1, limit=9):\n"
        "        def step(k=1):\n"
        "            return k\n"
        "        return min(self.size + by * step(), limit)\n\n"
        "    @staticmethod\n"
        "    def make(size=1):\n"
        "        return Box(size)\n\n\n"
        "by_keyword(0, c=3)\n"
        "by_position(0, 1)\n"
        "by_star(*[1], **{'b': 2})\n"
        "Box.make().grow(2)\n")
    assert unset_defaults([mod], [mod], root=tmp_path) == [
        "probe.py:1 by_keyword(b)", "probe.py:18 Box.grow(limit)",
        "probe.py:19 step(k)", "probe.py:24 Box.make(size)",
        "probe.py:5 by_position(c)"]
