"""Seeded input generators for the three workloads.

Everything the program under test receives is made here from the
workload seed, so the same seed always gives the same inputs.  The
generators are deliberately independent of ``repro.bench``: a change to
the program's own bench helpers must not change the benchmark's inputs.
"""

import random

# The register-machine interpreter of the first Futamura projection.
# Instructions are ``(op, arg)`` pairs: 0 add, 1 mul, 2 jump-if-zero
# (forward), 3 load.  Specialising ``run`` to a static program compiles
# that program.
MACHINE = """\
module Machine where

index xs n = if n == 0 then head xs else index (tail xs) (n - 1)
size xs = if null xs then 0 else 1 + size (tail xs)

step prog pc acc =
  if pc == size prog then acc
  else if fst (index prog pc) == 0 then step prog (pc + 1) (acc + snd (index prog pc))
  else if fst (index prog pc) == 1 then step prog (pc + 1) (acc * snd (index prog pc))
  else if fst (index prog pc) == 2 then (if acc == 0 then step prog (snd (index prog pc)) acc else step prog (pc + 1) acc)
  else step prog (pc + 1) (snd (index prog pc))

run prog acc = step prog 0 acc
"""

# The structure of a machine program (its op kinds and jump targets)
# decides how much specialisation it costs and how large its residual
# is; the constants barely matter.  Structures therefore come from a
# fixed pool, the same for every seed: TEMPLATES per length, with
# lengths chosen so unfold counts span about 10x.  A seed orders the
# pool and draws every constant, so each op still specialises a fresh
# program while the cost distribution stays comparable across seeds.
LENGTHS = (10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32)
TEMPLATES = 8
_OPS = (0, 0, 1, 2, 2, 3)


def _template(length, t):
    rng = random.Random("template/%d/%d" % (length, t))
    shape = []
    for pc in range(length):
        op = rng.choice(_OPS)
        shape.append((op, rng.randint(pc + 1, length) if op == 2 else None))
    return tuple(shape)


POOL = tuple(_template(n, t) for n in LENGTHS for t in range(TEMPLATES))


def machine_program(rng, shape):
    """A machine program of the given shape as ``(op, arg)`` Python
    pairs (the object language's pair encoding is applied by the
    caller).  Jumps go forward only, so every program halts; constants
    are never 0, so a statically known ``acc`` never takes a jump and
    the reachable structure does not depend on the seed."""
    prog = []
    for op, target in shape:
        if op == 2:
            arg = target
        elif op == 1:
            arg = rng.randint(2, 3)
        else:
            arg = rng.randint(1, 9)
        prog.append((op, arg))
    return tuple(prog)


def pool_program(seed, tag, i):
    """The ``i``-th program of the stream named by ``tag``: each run of
    ``len(POOL)`` consecutive programs uses every shape once, in a
    seeded order."""
    cycle, pos = divmod(i, len(POOL))
    order = list(range(len(POOL)))
    random.Random("order/%s/%d/%d" % (tag, seed, cycle)).shuffle(order)
    rng = random.Random("%s/%d/%d" % (tag, seed, i))
    return machine_program(rng, POOL[order[pos]])


def popular_program(seed, p):
    """Popular program ``p``: shape ``p`` of an evenly spaced subset of
    the pool (the same shapes for every seed), seeded constants."""
    rng = random.Random("popular/%d/%d" % (seed, p))
    return machine_program(rng, POOL[p * len(POOL) // POPULAR])


def acc_inputs(seed, i, count=4):
    """Dynamic ``acc`` inputs for op ``i``; 0 is always among them so
    the jump-if-zero branches are taken."""
    rng = random.Random("acc/%d/%d" % (seed, i))
    return [0] + [rng.randint(1, 50) for _ in range(count - 1)]


# ---------------------------------------------------------------------------
# The edit-loop module DAG.
# ---------------------------------------------------------------------------

# The paper's Sec. 5 corner: the residual of ``twice`` carries ``power``
# inside a static closure, so placement combines Power and Twice.
CORNER = {
    "Power": "module Power where\n\n"
    "power n x = if n == 1 then x else x * power (n - 1) x\n",
    "Twice": "module Twice where\n\ntwice f x = f @ (f @ x)\n",
    "Corner": "module Corner where\nimport Power\nimport Twice\n\n"
    "corner y = twice (\\x -> power 3 x) y\n",
}
FORCE_RESIDUAL = frozenset({"power", "twice", "corner"})

GOAL = "goal"
GOAL_STATIC = {"n": 6}


class Dag:
    """A layered module DAG plus the Sec. 5 corner and a ``Top`` module
    holding the cross-module goal.

    Every definition has the shape ``f n x`` and recurses only on a
    decreasing static ``n``, calling at most one definition of an
    imported module, so interpretation and specialisation both
    terminate and unfolding never branches.  A definition is in one of
    two *variants*: ``S`` tests only ``n`` (its unfold flag is static)
    and ``D`` also tests ``x`` (so it is residualised).  Flipping the
    variant changes the binding-time scheme; changing a constant does
    not.

    As with machine programs, the structure (imports, call edges,
    variants) is the same for every seed, so build and specialisation
    costs are comparable across seeds; the seed draws every constant
    and the edit sequence.
    """

    def __init__(self, seed, layers=12, width=25, defs=3):
        shape = random.Random("dag")
        consts = random.Random("dag/%d" % seed)
        self.modules = {}  # name -> imports
        self.defs = {}  # module -> [def dict]
        names = []
        for layer in range(layers):
            row = ["L%02dM%02d" % (layer, j) for j in range(width)]
            for name in row:
                imports = []
                if layer > 0:
                    below = ["L%02dM%02d" % (layer - 1, j) for j in range(width)]
                    imports.append(shape.choice(below))
                    lower = [m for m in names if m not in imports]
                    for _ in range(shape.randint(0, 2)):
                        pick = shape.choice(lower)
                        if pick not in imports:
                            imports.append(pick)
                self.modules[name] = tuple(sorted(imports))
                self.defs[name] = []
                for k in range(defs):
                    fname = "%s_f%d" % (name.lower(), k)
                    if imports:
                        dep = shape.choice(imports)
                        callee = "%s_f%d" % (dep.lower(), shape.randrange(defs))
                    else:
                        callee = fname
                    self.defs[name].append(
                        {
                            "name": fname,
                            "callee": callee,
                            "variant": shape.choice("SD"),
                            "c": consts.randint(1, 30),
                            "k": consts.randint(1, 5),
                        }
                    )
            names.extend(row)
        top_layer = ["L%02dM%02d" % (layers - 1, j) for j in range(width)]
        self.entries = shape.sample(top_layer, 3)
        # The spine: definitions the goal reaches (static n counts down
        # from GOAL_STATIC["n"]), in a fixed order.
        by_name = {d["name"]: d for ds in self.defs.values() for d in ds}
        self.spine = []
        for entry in self.entries:
            d = by_name["%s_f0" % entry.lower()]
            for _ in range(GOAL_STATIC["n"] + 1):
                if d not in self.spine:
                    self.spine.append(d)
                d = by_name.get(d["callee"], d)

    def module_of(self, d):
        return next(m for m, ds in self.defs.items() if d in ds)

    def module_source(self, name):
        lines = ["module %s where" % name]
        lines.extend("import %s" % m for m in self.modules[name])
        lines.append("")
        for d in self.defs[name]:
            call = "%s (n - 1) (x + %d)" % (d["callee"], d["k"])
            if d["variant"] == "S":
                body = "if n == 0 then x + %d else %s" % (d["c"], call)
            else:
                body = "if n == 0 then x + %d else if x == 0 then %d else %s" % (
                    d["c"],
                    d["c"],
                    call,
                )
            lines.append("%s n x = %s" % (d["name"], body))
        lines.append("")
        return "\n".join(lines)

    def top_source(self):
        calls = " + ".join(
            "%s_f0 n x" % m.lower() for m in self.entries
        )
        lines = ["module Top where", "import Corner"]
        lines.extend("import %s" % m for m in sorted(self.entries))
        lines += ["", "%s n x = %s + corner x" % (GOAL, calls), ""]
        return "\n".join(lines)

    def sources(self):
        """``{module name: source text}`` for the whole program."""
        out = {name: self.module_source(name) for name in self.modules}
        out.update(CORNER)
        out["Top"] = self.top_source()
        return out

    def edit(self, seed, i):
        """Apply the ``i``-th seeded single-definition edit; returns
        ``(module name, kind)``.  Every third edit flips a variant
        (scheme change); the others change a constant (body only).  The
        2:1 ratio is an assumption, not a measured edit profile.
        Every ninth flips the next spine definition in a fixed order,
        so the goal's residual changes the same way for every seed; the
        other edits stay off the spine."""
        if i % 9 == 8:
            d = self.spine[(i // 9) % len(self.spine)]
            d["variant"] = "D" if d["variant"] == "S" else "S"
            return self.module_of(d), "scheme"
        rng = random.Random("edit/%d/%d" % (seed, i))
        while True:
            name = rng.choice(sorted(self.modules))
            d = rng.choice(self.defs[name])
            if d not in self.spine:
                break
        if i % 3 == 2:
            d["variant"] = "D" if d["variant"] == "S" else "S"
            return name, "scheme"
        d["c"] = d["c"] % 30 + 1
        return name, "body"


# ---------------------------------------------------------------------------
# The serve-mix request stream.
# ---------------------------------------------------------------------------

# The cold share is the one recorded evidence for this mix: an earlier
# exploratory run of the daemon on the same interpreter answered 47 of
# 600 requests (7.8%) from tier 1.  One never-seen program per 13
# requests gives 46 of 600 (7.7%).  The rest are assumptions, not
# measurements: the size of the popular set, its 1/rank popularity and
# the share of ``specialise`` ops.  The attribution result on serve-mix
# depends on the cold share (see README.md).
POPULAR = 24  # machine programs in the popular set (assumed)
FRESH_EVERY = 13  # one never-seen program per 13 requests
REFRESH_AFTER = 3  # ... asked for again 3 requests later
SPEC_EVERY = 10  # every 10th of the rest is a ``specialise`` op (assumed)


def request_stream(seed, count):
    """The first ``count`` requests, as ``(kind, n)`` tuples: ``("run",
    p)`` over popular program ``p`` with a Zipf-like popularity,
    ``("spec", p)`` asking for its residual text, ``("fresh", j)`` for
    the ``j``-th never-seen program and ``("refresh", j)`` for its
    second request.  The shares are fixed by position, so every seed
    has the same mix."""
    rng = random.Random("stream/%d" % seed)
    weights = [1.0 / (rank + 1) for rank in range(POPULAR)]
    out = []
    for i in range(count):
        cycle, pos = divmod(i, FRESH_EVERY)
        if pos == FRESH_EVERY - 1:
            out.append(("fresh", cycle))
        elif pos == REFRESH_AFTER - 1 and cycle > 0:
            out.append(("refresh", cycle - 1))
        else:
            p = rng.choices(range(POPULAR), weights)[0]
            out.append(("spec" if i % SPEC_EVERY == SPEC_EVERY - 1 else "run", p))
    return out
