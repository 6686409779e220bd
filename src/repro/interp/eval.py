"""Big-step evaluation of object-language programs.

Call-by-value.  The paper's metalanguage is lazy, but the object-language
fragments it specialises are all terminating, strongly typed first-order
loops over data, for which call-by-value and call-by-name coincide on
defined results; the test suite relies on this only for programs where
both are defined.

Values are Python naturals, booleans, tuples (lists), tagged pairs (see
:mod:`repro.lang.prims`), and :class:`Closure` for lambdas.
"""

from dataclasses import dataclass

from repro.lang.ast import App, Call, If, Lam, Lit, Prim, Var
from repro.lang.prims import PrimError, apply_prim
from repro.stackguard import deep_stack


class EvalError(Exception):
    """A dynamic error while running an object-language program."""


@dataclass
class Closure:
    """A function value: a lambda together with its environment."""

    var: str
    body: object
    env: dict

    def __repr__(self):
        return "<closure \\%s -> ...>" % self.var


class Interpreter:
    """Evaluates expressions against a :class:`LinkedProgram`.

    Also usable with any object exposing ``symbols`` and ``find_def`` —
    residual programs are re-linked before being run.
    """

    def __init__(self, linked, fuel=1_000_000):
        """``fuel`` bounds the total number of evaluation steps, so tests
        on accidentally divergent programs fail fast instead of hanging."""
        self.linked = linked
        self.fuel = fuel
        self.steps = 0
        self._def_cache = {}

    def _spend(self):
        self.steps += 1
        if self.steps > self.fuel:
            raise EvalError("out of fuel after %d steps" % self.fuel)

    def _lookup_def(self, name):
        d = self._def_cache.get(name)
        if d is None:
            _, d = self.linked.find_def(name)
            self._def_cache[name] = d
        return d

    def call(self, name, args):
        """Call named function ``name`` on evaluated ``args``."""
        d = self._lookup_def(name)
        if len(args) != len(d.params):
            raise EvalError(
                "%s expects %d arguments, got %d" % (name, len(d.params), len(args))
            )
        return self.eval(d.body, dict(zip(d.params, args)))

    def eval(self, expr, env):
        """Evaluate ``expr`` in environment ``env`` (name -> value)."""
        self._spend()
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Var):
            try:
                return env[expr.name]
            except KeyError:
                raise EvalError("unbound variable %r" % expr.name)
        if isinstance(expr, Prim):
            args = [self.eval(a, env) for a in expr.args]
            try:
                return apply_prim(expr.op, args)
            except PrimError as e:
                raise EvalError(str(e))
        if isinstance(expr, If):
            cond = self.eval(expr.cond, env)
            if not isinstance(cond, bool):
                raise EvalError("condition is not a boolean: %r" % (cond,))
            branch = expr.then_branch if cond else expr.else_branch
            return self.eval(branch, env)
        if isinstance(expr, Call):
            args = [self.eval(a, env) for a in expr.args]
            return self.call(expr.func, args)
        if isinstance(expr, Lam):
            return Closure(expr.var, expr.body, env)
        if isinstance(expr, App):
            fun = self.eval(expr.fun, env)
            arg = self.eval(expr.arg, env)
            if not isinstance(fun, Closure):
                raise EvalError("applying a non-function: %r" % (fun,))
            inner = dict(fun.env)
            inner[fun.var] = arg
            return self.eval(fun.body, inner)
        raise TypeError("not an expression: %r" % (expr,))


def run_program(linked, func, args, fuel=1_000_000):
    """Run named function ``func`` of ``linked`` on Python values ``args``.

    The evaluator is recursive; deep object-language recursion is given
    extra interpreter stack, and Python-level stack exhaustion surfaces
    as :class:`EvalError` rather than ``RecursionError``."""
    try:
        with deep_stack():
            return Interpreter(linked, fuel=fuel).call(func, list(args))
    except RecursionError:
        raise EvalError("object-language recursion too deep")


def run_main(linked, args, fuel=1_000_000):
    """Run the program's ``main`` function."""
    return run_program(linked, "main", args, fuel=fuel)
