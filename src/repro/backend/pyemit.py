"""Object-language → Python code generation.

Produces a self-contained Python module: one Python function per
object-language definition, a small preamble of primitive helpers with
the object language's exact semantics (monus subtraction, strict
booleans, checked list/pair access), lists as tuples and pairs as
``('pair', a, b)`` — the same value representation the interpreter
uses, so results are directly comparable.

Expressions compile to Python expressions (conditionals become
conditional expressions, lambdas become lambdas), so the translation is
purely syntax-directed, in the spirit of the cogen itself.
"""

import keyword

from repro.lang.ast import App, Call, If, Lam, Lit, Prim, Var
from repro.stackguard import deep_stack

PREAMBLE = '''\
"""Compiled object-language program (generated by repro.backend)."""


class RuntimeFault(Exception):
    """An object-language runtime error in compiled code."""


def _monus(a, b):
    return a - b if a > b else 0


def _div(a, b):
    if b == 0:
        raise RuntimeFault("division by zero")
    return a // b


def _mod(a, b):
    if b == 0:
        raise RuntimeFault("modulo by zero")
    return a % b


def _and(a, b):
    return a and b


def _or(a, b):
    return a or b


def _cons(x, xs):
    return (x,) + xs


def _conses(items, tail):
    return tuple(items) + tail


def _head(xs):
    if not xs:
        raise RuntimeFault("head of empty list")
    return xs[0]


def _tail(xs):
    if not xs:
        raise RuntimeFault("tail of empty list")
    return xs[1:]


def _null(xs):
    return xs == ()


def _pair(a, b):
    return ("pair", a, b)


def _fst(p):
    return p[1]


def _snd(p):
    return p[2]
'''

# op -> (helper or infix, is_infix)
_PRIM_IMPL = {
    "+": ("+", True),
    "*": ("*", True),
    "==": ("==", True),
    "<": ("<", True),
    "<=": ("<=", True),
    "-": ("_monus", False),
    "div": ("_div", False),
    "mod": ("_mod", False),
    "and": ("_and", False),
    "or": ("_or", False),
    "not": ("not_", None),  # special-cased below
    "cons": ("_cons", False),
    "head": ("_head", False),
    "tail": ("_tail", False),
    "null": ("_null", False),
    "pair": ("_pair", False),
    "fst": ("_fst", False),
    "snd": ("_snd", False),
}


def _mangle(name):
    out = name.replace("'", "_q")
    if keyword.iskeyword(out) or out.startswith("_"):
        out += "_v"
    return out


def _names_of(e, names):
    """Every name bound or referenced under ``e`` (iterative: residual
    bodies can be arbitrarily deep)."""
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            names.add(x.name)
        elif isinstance(x, Lam):
            names.add(x.var)
            stack.append(x.body)
        elif isinstance(x, Call):
            names.add(x.func)
            stack.extend(x.args)
        elif isinstance(x, Prim):
            stack.extend(x.args)
        elif isinstance(x, If):
            stack.extend((x.cond, x.then_branch, x.else_branch))
        elif isinstance(x, App):
            stack.extend((x.fun, x.arg))
    return names


def mangle_table(program):
    """An *injective* name map for one whole program.

    ``_mangle`` alone is not injective — the object language allows
    ``_`` and ``'`` in identifiers, so ``class'`` and ``class_q`` both
    mangle to ``class_q``, and ``for`` collides with a literal
    ``for_v``.  Names are therefore disambiguated per program: within a
    post-mangle collision group the (sorted) first name keeps the bare
    mangling and the rest get a deterministic ``_v2``/``_v3``/...
    suffix, skipping anything another name already maps to.  Programs
    without collisions — the overwhelmingly common case — emit exactly
    the names ``_mangle`` alone would produce.
    """
    names = set()
    for module in program.modules:
        for d in module.defs:
            names.add(d.name)
            names.update(d.params)
            _names_of(d.body, names)
    groups = {}
    for name in sorted(names):
        groups.setdefault(_mangle(name), []).append(name)
    table = {}
    taken = set(groups)
    for base in sorted(groups):
        owners = groups[base]
        table[owners[0]] = base
        for name in owners[1:]:
            k = 2
            while "%s_v%d" % (base, k) in taken:
                k += 1
            out = "%s_v%d" % (base, k)
            taken.add(out)
            table[name] = out
    return table


def _flatten_assoc(e):
    """Operands of a same-operator (associative) chain, left to right."""
    out = []

    def go(x):
        if isinstance(x, Prim) and x.op == e.op:
            go(x.args[0])
            go(x.args[1])
        else:
            out.append(x)

    go(e)
    return out


def _flatten_cons(e):
    """Split a cons chain into (elements, tail expression)."""
    items = []
    while isinstance(e, Prim) and e.op == "cons":
        items.append(e.args[0])
        e = e.args[1]
    return items, e


def _expr(e, mangle=_mangle):
    if isinstance(e, Lit):
        if e.value == ():
            return "()"
        return repr(e.value)
    if isinstance(e, Var):
        return mangle(e.name)
    if isinstance(e, Prim):
        # CPython bounds *nesting* of parenthesised groups (~200), so
        # associative chains and cons spines — which residual programs
        # produce in bulk — are emitted flat.
        if e.op in ("+", "*") and isinstance(e.args[0], Prim) and (
            e.args[0].op == e.op
        ):
            operands = [_expr(x, mangle) for x in _flatten_assoc(e)]
            return "(%s)" % (" %s " % e.op).join(operands)
        if e.op == "cons":
            items, tail = _flatten_cons(e)
            if len(items) >= 2:
                return "_conses([%s], %s)" % (
                    ", ".join(_expr(x, mangle) for x in items),
                    _expr(tail, mangle),
                )
        args = [_expr(a, mangle) for a in e.args]
        if e.op == "not":
            return "(not %s)" % args[0]
        impl, infix = _PRIM_IMPL[e.op]
        if infix:
            return "(%s %s %s)" % (args[0], impl, args[1])
        return "%s(%s)" % (impl, ", ".join(args))
    if isinstance(e, If):
        return "(%s if %s else %s)" % (
            _expr(e.then_branch, mangle),
            _expr(e.cond, mangle),
            _expr(e.else_branch, mangle),
        )
    if isinstance(e, Call):
        return "%s(%s)" % (
            mangle(e.func),
            ", ".join(_expr(a, mangle) for a in e.args),
        )
    if isinstance(e, Lam):
        return "(lambda %s: %s)" % (mangle(e.var), _expr(e.body, mangle))
    if isinstance(e, App):
        return "%s(%s)" % (_expr(e.fun, mangle), _expr(e.arg, mangle))
    raise TypeError("not an expression: %r" % (e,))


def emit_python(program, names=None):
    """Emit one Python module for a whole object-language program.

    Following the run-time-code-generation observation of Sec. 8, the
    residual module structure is irrelevant to the generated code: all
    definitions land in one compilation unit, ordered so the source
    modules' comments delimit them.  ``names`` is the program's
    :func:`mangle_table` (computed when omitted).
    """
    table = mangle_table(program) if names is None else names

    def mangle(name):
        return table.get(name) or _mangle(name)

    chunks = [PREAMBLE]
    for module in program.modules:
        chunks.append("\n# module %s" % module.name)
        for d in module.defs:
            params = ", ".join(mangle(p) for p in d.params)
            chunks.append(
                "def %s(%s):\n    return %s\n"
                % (mangle(d.name), params, _expr(d.body, mangle))
            )
    return "\n".join(chunks)


class CompiledProgram:
    """A compiled program: call its functions as Python functions."""

    def __init__(self, program, source, namespace, names=None):
        self.program = program
        self.source = source
        self.namespace = namespace
        self.names = names or {}

    def function(self, name):
        return self.namespace[self.names.get(name) or _mangle(name)]

    def call(self, name, *args):
        """Call ``name`` on Python values (deep recursion supported)."""
        fn = self.function(name)
        with deep_stack():
            return fn(*args)


def compile_program(program, filename="<compiled program>"):
    """Compile an object-language program to a :class:`CompiledProgram`.

    Accepts either a plain :class:`~repro.lang.ast.Program` or a
    :class:`~repro.modsys.program.LinkedProgram`."""
    program = getattr(program, "program", program)
    names = mangle_table(program)
    source = emit_python(program, names=names)
    namespace = {"__name__": "compiled_program"}
    exec(compile(source, filename, "exec"), namespace)
    return CompiledProgram(program, source, namespace, names=names)
