"""The kernel compiler: a kernel fused with the operations of one runtime.

A kernel is written once, against the Runtime surface (kernels.py): it
binds the operations it calls at entry (box = rt.box_host_float, add =
rt.generic_add, ...) and calls them, and that form is the reference. For
one runtime key (family, HOOKED, ZEROS), fuse rewrites the kernel's source
into one function in which every call to a bound operation is the inline
body of that operation. The bodies come from the text that
runtime._builder compiles (runtime._text), so that text stays the one
definition of every operation. The rewrite keeps the reference's
operations, in its order, on its operands:

- Every name of the kernel's text takes the prefix k_ (KERNEL), its free
  names (globals, builtins) included, so none can shadow a name of the
  operations' text or be shadowed by one: sumfp's local n is the box-event
  counter there, and fft's loop variable k is rot4's decode offset.
- A call nested in another (add(mul(a, b), c)) is evaluated into a
  temporary (t_0, t_1, ...: TEMP) first, as is every operand that is not a
  name or a constant, and so is every expression Python evaluates before
  such a call, so the order of evaluation is Python's.
- A loop condition with an operation (while not less(n, i)) becomes a test
  at the top of a while True loop, and a list comprehension with one (its
  targets renamed to temporaries) a for loop that appends.
- An inlined body's `return X` binds the call's target to X and leaves a
  while True loop around the body with break, a jump: the fixnum result of
  arith returns from inside its try, and a flag tested after the try would
  cost every float result a store, a load and a test. A kernel's
  `return op(...)` keeps the body's returns.
- Nested functions (fibfp's fib) are fused too.
- fop(xa, xb) stays a call: once CPython 3.11 specialises an inline
  xa + xb, two NaN operands with different bits give the first operand's
  payload, where fop gives the second's.

Shadow floats. A compiler that has just boxed a float still holds it; so
does the fused code. In each function scope (the kernel's, and each nested
function's), a name is shadowed when every binding of it there is the
target of an inlined operation that gives a float's word (box_float,
box_host_float, the generic arithmetic; not generic_less, whose results are
bools, nor box_fixnum) or a plain copy of a shadowed name (mbrot's
zr = zero); a temporary such an operation binds is shadowed too. Any other
binding, of any form, leaves the name unshadowed: a parameter, a for or
with target, unpacking, augmented assignment, a subscript or a call's
result, except ... as, del, an import, a def or class; and a binding in a
lambda or a comprehension counts as one of the enclosing scope's. A nested
function sees the shadows of the names it reads from the enclosing
function (fibfp's one and two). Each binding of a shadowed name V also
binds f_V (SHADOW): on the returns that give the word of the float BOX
boxed, that float r, which box_float and box_host_float read back from
the runtime's buffer (never box_host_float's argument: an int, a bool or
a numpy float32 would compute otherwise than its word's float); on the
others (arith's fixnum result, NaN and NuN boxing's CANON, whose float
would keep a payload that decoding loses), None. Those returns, and the
first test of each FLOAT chain (the memo lookup or the tag test), are
found in the operation text by the names its FLOAT and ALLOC blocks take
(runtime._SOURCE), not restated here. Each FLOAT chain on a shadowed
operand V then tests f_V first, and takes it as the float unless it is
None; otherwise the chain runs unchanged. So the fused form makes every
box event, word, counter, arena cell, hook call and exception of the
reference form, and skips only the memo lookups, decodes and arena reads
of words whose float it holds. The decode memo is a cache: after a fused
run it holds at most MEMO_BOUND words, each with its word's exact decode,
but not always the words the reference leaves in it; a shadowed operand
never fills it.

Each operation body is parsed once per kernel, with the branches its
substituted constants rule out folded away, and its inline copies share
every node that holds no operand and no return. That keeps the tree a
kernel compiles, and the memory compiling it takes, near the size of the
bytecode it gives: mbrot inlines 26 calls. Every node of an inlined body
sits at the kernel's def line, so an exception raised inside an operation
is reported at that line; the reference form reports the call's.

The fused function shares the runtime's state; it does not copy it. Its
globals are the runtime's own namespace (its tables, buffer, memo, hook and
heap names), and its counter names, those the runtime's text declares
nonlocal, are the runtime's own closure cells, which the fused function
and its nested functions declare nonlocal too:
types.FunctionType(code, namespace, closure=cells). So counts(), stats()
and reset() read after a fused run as after the reference, whether it
returned or raised. The other cells hold the
arithmetic's fop and iop (runtime._ARITH) and the kernel's free names, read
from its globals and builtins when the function is made.

Each (kernel, key) is compiled once, on first use, and cached (_compiled):
nothing is compiled at import or when a Runtime is built. fused() returns
None when an operation attribute of the runtime is not the closure the
Runtime compiled (a tracer or a spy replaced it); kernels.run then runs the
reference, so that the replacement sees every call.

The compiler takes the kernels' subset of Python. It raises
NotImplementedError for what it cannot rewrite without changing the order
or the operands of an operation: global, nonlocal and := in a kernel, a
bound operation rebound or used other than as a call with positional
operands, and a call in a place evaluated conditionally or repeatedly (a
boolean operator, a chained comparison, a comprehension's filter or inner
loop, a with item)."""

import ast
import builtins
import inspect
import textwrap
from copy import copy
from functools import cache
from types import CellType, FunctionType

from .runtime import _ARITH, _BLOCK, _MISS, _OPS, _SOURCE, _text

KERNEL = "k_"  # the prefix of every name of the kernel's text
TEMP = "t_"  # the prefix of the compiler's temporaries and constant cells
SHADOW = "f_"  # the prefix of the float a shadowed name's word was boxed from


def _blocks(kind, text):
    """The (word, float) arguments of the kind blocks in text (runtime._BLOCK)."""
    return [(w, x) for _, k, w, x in _BLOCK.findall(text) if k == kind]


# Each FLOAT chain's operand and the name the chain binds to its float, from
# the FLOAT(w, x) blocks of the operations' source.
_CHAINS = dict(_blocks("FLOAT", _SOURCE))
# The float that BOX boxes, which a miss stores in its new cell: the float
# of MISS's ALLOC(w, x) block.
((_, _BOXED),) = _blocks("ALLOC", _MISS)

# The fields of an expression in the order Python evaluates them, for the
# expressions an operation call may sit in.
_ORDER = {
    ast.Call: ("func", "args"),
    ast.BinOp: ("left", "right"),
    ast.UnaryOp: ("operand",),
    ast.Compare: ("left", "comparators"),
    ast.Subscript: ("value", "slice"),
    ast.Attribute: ("value",),
    ast.Tuple: ("elts",),
    ast.List: ("elts",),
}


def fused(fn, rt):
    """Kernel fn fused with the operations of Runtime rt, a function with
    fn's signature; None when an operation attribute of rt is not the
    closure rt compiled."""
    ops = rt._ops
    if any(getattr(rt, op) is not f for op, f in ops.items()):
        return None
    code, consts = _compiled(fn, rt._key)
    box = ops["box_float"]  # it closes over every cell of the runtime
    cells = dict(zip(box.__code__.co_freevars, box.__closure__))
    closure = tuple(
        cells[name] if name in cells
        else CellType(consts[name]) if name in consts
        else _free(fn, name[len(KERNEL):])
        for name in code.co_freevars
    )
    return FunctionType(code, box.__globals__, fn.__name__, fn.__defaults__, closure)


def _free(fn, name):
    """A cell holding what free name `name` of fn refers to: fn's own cell,
    or a new cell with its global or builtin, empty where neither has it
    (reading it raises NameError, as the reference would)."""
    own = fn.__code__.co_freevars
    if name in own:
        return fn.__closure__[own.index(name)]
    if name in fn.__globals__:
        return CellType(fn.__globals__[name])
    return CellType(getattr(builtins, name)) if hasattr(builtins, name) else CellType()


@cache
def _op_defs(key):
    """(cells, defs) of runtime key's text: the names its functions
    declare nonlocal (the counters), and its functions by
    name, each one's parameter names and its body's text without its
    nonlocal declaration, which each kernel's compiler parses again and
    places at its own lines."""
    tree = ast.parse(_text(*key))
    clash = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id.startswith((KERNEL, TEMP, SHADOW))}
    if clash:
        raise AssertionError("runtime names with the fused prefixes: %s" % sorted(clash))
    cells = tuple(dict.fromkeys(c for n in ast.walk(tree) if isinstance(n, ast.Nonlocal) for c in n.names))
    defs = {
        d.name: (
            [a.arg for a in d.args.args],
            ast.unparse([s for s in d.body if not isinstance(s, ast.Nonlocal)]),
        )
        for d in ast.walk(tree)
        if isinstance(d, ast.FunctionDef)
    }
    return cells, defs


@cache
def _compiled(fn, key):
    """(code, consts): kernel fn fused for runtime key, as the code object
    of a function whose free variables are the runtime's cells, the names
    of consts (the fop and iop of each arithmetic operation it inlines)
    and the prefixed free names of fn."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    fdef = tree.body[0]
    if not isinstance(fdef, ast.FunctionDef):
        raise NotImplementedError("cannot fuse %s: not a def" % fn.__qualname__)
    cells, defs = _op_defs(key)
    fuser = _Fuser(fn.__qualname__, cells, defs, fdef.lineno)
    fdef = fuser.fuse(fdef)
    # a function of the cells, whose code is the fused function's with
    # every cell free: what it reads of the names bound here and does not
    # bind itself
    outer = ast.parse("def cells():\n    %s = None" % " = ".join((*cells, *fuser.names))).body[0]
    outer.body += [fdef, ast.Return(ast.Name(fdef.name, ast.Load()))]
    module = ast.fix_missing_locations(ast.Module([outer], []))
    ns = {}
    exec(compile(module, inspect.getsourcefile(fn), "exec"), ns)
    code = ns["cells"]().__code__
    return code.replace(co_name=fn.__name__, co_qualname=fn.__qualname__), fuser.consts


class _Fuser:
    """Rewrites one kernel definition for the operation bodies defs."""

    def __init__(self, name, cells, defs, line):
        self.name = name
        self.cells = list(cells)
        self.defs = defs
        self.line = line  # of the kernel's def, where every inlined body sits
        self.ops = {}  # a bound operation's prefixed name -> its Runtime attribute
        self.bodies = {}  # operation body name -> body(name)
        self.consts = {}  # constant cell name -> value
        self.temps = 0
        self.shadowed = set()  # the shadowed names of the scope being rewritten

    def fail(self, why):
        raise NotImplementedError("cannot fuse %s: %s" % (self.name, why))

    def fuse(self, fdef):
        for node in ast.walk(fdef):
            if isinstance(node, (ast.Global, ast.Nonlocal, ast.NamedExpr)):
                self.fail("%s at line %d" % (type(node).__name__, node.lineno))
        body = fdef.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        rt = fdef.args.args[0].arg if fdef.args.args else None
        fdef.body = []
        for s in body:
            v = getattr(s, "value", None)
            if (
                isinstance(s, ast.Assign) and len(s.targets) == 1
                and isinstance(s.targets[0], ast.Name) and isinstance(v, ast.Attribute)
                and isinstance(v.value, ast.Name) and v.value.id == rt and v.attr in _OPS
            ):
                self.ops[KERNEL + s.targets[0].id] = v.attr
            else:
                fdef.body.append(s)
        _Rename().visit(fdef)
        bound = [
            n.id if isinstance(n, ast.Name) else n.arg if isinstance(n, ast.arg) else n.name
            for n in ast.walk(fdef)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
            or isinstance(n, (ast.arg, ast.FunctionDef, ast.ExceptHandler))
        ]
        if set(bound) & set(self.ops):
            self.fail("an operation's name is rebound")
        self.shadowed = self.scope(fdef, set())
        fdef.body = [ast.Nonlocal(self.cells), *self.block(fdef.body)]
        names = {n.id for n in ast.walk(fdef) if isinstance(n, ast.Name)}
        if names & set(self.ops):
            self.fail("%s outside a call it can inline" % ", ".join(sorted(names & set(self.ops))))
        self.names = sorted(n for n in names if n.startswith((KERNEL, TEMP)))
        return fdef

    def is_op(self, e):
        return isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and e.func.id in self.ops

    def gives_float(self, call):
        """Whether operation call has a return that gives a float's word."""
        return bool(self.body(_OPS[self.ops[call.func.id]])[2])

    def scope(self, fdef, outer):
        """The names shadowed in function fdef, nested in a function whose
        shadowed names are outer: those of its own names every binding of
        which is the target of an operation call that gives a float's word
        (gives_float) or a copy of a shadowed name, and the names of outer
        it does not bind. Any other binding, of any form, leaves a name
        unshadowed; so do those of a lambda or a comprehension, whose
        scopes are counted as fdef's."""
        binds = {}  # name -> its bindings: True (an operation), the name it copies, or False
        todo = [fdef.args, *fdef.body]
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                binds.setdefault(node.name, []).append(False)
                continue  # its parameters and body are a scope of their own
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                v = node.value
                kind = v.id if isinstance(v, ast.Name) else self.is_op(v) and self.gives_float(v)
                binds.setdefault(node.targets[0].id, []).append(kind)
                todo.append(v)
                continue
            name = _bound(node)
            if name is not None:
                binds.setdefault(name, []).append(False)
            todo += ast.iter_child_nodes(node)
        shadowed = {name for name, kinds in binds.items() if all(kinds)}
        while True:  # a copy of a name that is not shadowed is not shadowed
            drop = {
                name for name in shadowed for k in binds[name]
                if isinstance(k, str) and k not in (shadowed if k in binds else outer)
            }
            if not drop:
                return shadowed | (outer - binds.keys())
            shadowed -= drop

    def has_op(self, node):
        return any(self.is_op(n) for n in ast.walk(node))

    def temp(self):
        self.temps += 1
        return "%s%d" % (TEMP, self.temps - 1)

    def block(self, stmts):
        return [t for s in stmts for t in self.stmt(s)]

    def stmt(self, s):
        """s rewritten, as a list of statements."""
        if isinstance(s, ast.FunctionDef):
            uses = self.has_op(s)
            outer, self.shadowed = self.shadowed, self.scope(s, self.shadowed)
            s.body = self.block(s.body)
            self.shadowed = outer
            if uses:
                s.body.insert(0, ast.Nonlocal(self.cells))
            return [s]
        if isinstance(s, ast.While) and self.has_op(s.test):
            if s.orelse:
                self.fail("while-else at line %d" % s.lineno)
            pre, test = self.anf(s.test)
            stop = ast.If(ast.UnaryOp(ast.Not(), test), [ast.Break()], [])
            loop = ast.While(ast.Constant(True), [*pre, stop, *self.block(s.body)], [])
            # at its first statement's line: a line of its own would leave
            # a NOP at the top of the loop
            return [ast.copy_location(loop, pre[0] if pre else s)]
        one = isinstance(s, ast.Assign) and len(s.targets) == 1 and isinstance(s.targets[0], ast.Name)
        if (one or isinstance(s, ast.Return)) and self.is_op(s.value):
            # a call bound to a name (no temporary) or returned (its returns stay)
            pre, args = self.seq(s.value.args, len(s.value.args))
            return pre + self.inline(s.value, args, s.targets[0].id if one else None)
        pre = []
        if not isinstance(s, ast.While):
            for field in ("value", "test", "iter"):  # evaluated once, first
                e = getattr(s, field, None)
                if isinstance(e, ast.expr):
                    p, e = self.anf(e)
                    pre += p
                    setattr(s, field, e)
        for field in ("body", "orelse", "finalbody"):
            if isinstance(getattr(s, field, None), list):
                setattr(s, field, self.block(getattr(s, field)))
        for h in getattr(s, "handlers", ()):
            h.body = self.block(h.body)
        if one and isinstance(s.value, ast.Name) and s.targets[0].id in self.shadowed:
            # a copy of a shadowed name copies its float too
            target, value = (SHADOW + n.id for n in (s.targets[0], s.value))
            f = ast.Assign([ast.Name(target, ast.Store())], ast.Name(value, ast.Load()))
            return pre + [s, ast.copy_location(f, s)]
        return pre + [s]

    def anf(self, e):
        """(statements, e'): the statements evaluate, in Python's order, the
        operation calls in e, each into a temporary, and what Python
        evaluates before them; e' is e with those replaced."""
        if not self.has_op(e):
            return [], e
        if self.is_op(e):
            pre, args = self.seq(e.args, len(e.args))
            t = self.temp()
            if self.gives_float(e):  # bound once, by this call
                self.shadowed.add(t)
            return pre + self.inline(e, args, t), ast.Name(t, ast.Load())
        if isinstance(e, ast.ListComp):
            return self.listcomp(e)
        if type(e) not in _ORDER or isinstance(e, ast.Compare) and len(e.comparators) > 1:
            self.fail("an operation inside %s at line %d" % (type(e).__name__, e.lineno))
        slots = []
        for f in _ORDER[type(e)]:
            v = getattr(e, f)
            slots += [(v, i) for i in range(len(v))] if isinstance(v, list) else [(f, None)]
        values = [getattr(e, s) if i is None else s[i] for s, i in slots]
        last = max((i for i, v in enumerate(values) if self.has_op(v)), default=-1)
        pre, values = self.seq(values, last)
        for (s, i), v in zip(slots, values):
            if i is None:
                setattr(e, s, v)
            else:
                s[i] = v
        return pre, e

    def seq(self, values, last):
        """(statements, values'): values rewritten in order, those before
        index last evaluated into temporaries unless they are names or
        constants."""
        pre, out = [], []
        for i, v in enumerate(values):
            if isinstance(v, ast.Starred):
                self.fail("*args beside an operation at line %d" % v.lineno)
            p, v = self.anf(v)
            pre += p
            if i < last and not isinstance(v, (ast.Name, ast.Constant)):
                t = self.temp()
                pre.append(ast.copy_location(ast.Assign([ast.Name(t, ast.Store())], v), v))
                v = ast.Name(t, ast.Load())
            out.append(v)
        return pre, out

    def listcomp(self, e):
        """A list comprehension with an operation in its element as a loop
        that appends to a temporary, and the temporary."""
        gen = e.generators[0]
        if len(e.generators) > 1 or gen.ifs or gen.is_async or self.has_op(gen.target):
            self.fail("a comprehension at line %d" % e.lineno)
        pre, it = self.anf(gen.iter)
        fresh = {n.id: self.temp() for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
        target, elt = (_Rename(fresh).visit(x) for x in (gen.target, e.elt))
        body, elt = self.anf(elt)
        t = self.temp()
        append = ast.Attribute(ast.Name(t, ast.Load()), "append", ast.Load())
        body.append(ast.Expr(ast.Call(append, [elt], [])))
        made = [
            ast.Assign([ast.Name(t, ast.Store())], ast.List([], ast.Load())),
            ast.For(target, it, body, []),
        ]
        return pre + [ast.copy_location(s, e) for s in made], ast.Name(t, ast.Load())

    def body(self, name):
        """(statements, rewritten, floats, heads) of the operation body name
        in _SOURCE, parsed once per kernel: its tests of substituted
        constants folded, every node at the kernel's def line; rewritten,
        the ids of the nodes a call rewrites: those with a parameter, fop,
        iop or a return in them; floats, the ids of the returns that give
        the word of the float BOX boxed (_BOXED): those after its binding
        that return no constant (a constant is CANON, whose float is not
        the one boxed); and heads, for the first test of each FLOAT chain
        (the outermost if that tests an operand and binds its float), the
        operand's parameter and the name the chain binds to its float."""
        if name not in self.bodies:
            params, text = self.defs[name]
            names = {*params, "fop", "iop"}
            stmts = _fold(ast.parse(text).body)
            rewritten = set()

            def mark(node):
                if "lineno" in node._attributes:
                    node.lineno = node.end_lineno = self.line
                    node.col_offset = node.end_col_offset = 0
                hit = [mark(n) for n in ast.iter_child_nodes(node)]
                if any(hit) or isinstance(node, ast.Return) or getattr(node, "id", None) in names:
                    rewritten.add(id(node))
                    return True
                return False

            boxed = next((i + 1 for i, s in enumerate(stmts) if _stores(s, _BOXED)), len(stmts))
            floats = {
                id(r) for s in stmts[boxed:] for r in ast.walk(s)
                if isinstance(r, ast.Return) and not isinstance(r.value, ast.Constant)
            }
            heads = {}
            todo = {p: _CHAINS[p] for p in params if p in _CHAINS}
            for node in ast.walk(ast.Module(stmts, [])):  # breadth first: the outermost if first
                if isinstance(node, ast.If):
                    tested, bound = _names(node.test, ast.Load), _names(node, ast.Store)
                    for p in [p for p, x in todo.items() if p in tested and x in bound]:
                        heads[id(node)] = p, todo.pop(p)
            for s in stmts:
                mark(s)
            self.bodies[name] = stmts, rewritten, floats, heads
        return self.bodies[name]

    def inline(self, call, args, target):
        """The body of the operation call makes, on operands args (names
        and constants), binding target to its result; with no target, the
        body returns it. The calls of one operation share every node of its
        body they leave as it is, so that a kernel's tree grows by little
        more than the nodes that hold its operands."""
        op = self.ops[call.func.id]
        params = self.defs[_OPS[op]][0]
        if call.keywords or len(args) != len(params):
            self.fail("%s takes %d positional operands" % (call.func.id[len(KERNEL):], len(params)))
        stmts, rewritten, floats, heads = self.body(_OPS[op])
        subst = dict(zip(params, args))
        for name, f in zip(("fop", "iop"), _ARITH.get(op, ())):
            subst[name] = ast.Name("%s%s_%s" % (TEMP, op, name), ast.Load())
            self.consts[subst[name].id] = f

        def rewrite(node):
            if id(node) not in rewritten:
                return node
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Load):
                    raise AssertionError("an operation assigns its parameter %s" % node.id)
                a = subst[node.id]
                return ast.Name(a.id, ast.Load()) if isinstance(a, ast.Name) else ast.Constant(a.value)
            if isinstance(node, ast.Return) and target is not None:
                value = rewrite(node.value) if node.value else ast.Constant(None)
                bind = [ast.Assign([ast.Name(target, ast.Store())], value)]
                if target in self.shadowed:
                    f = ast.Name(_BOXED, ast.Load()) if id(node) in floats else ast.Constant(None)
                    bind.append(ast.Assign([ast.Name(SHADOW + target, ast.Store())], f))
                return [*bind, ast.Break()]
            new = copy(node)
            for field, old in ast.iter_fields(new):
                if isinstance(old, ast.AST):
                    setattr(new, field, rewrite(old))
                elif isinstance(old, list):
                    xs = [rewrite(x) if isinstance(x, ast.AST) else x for x in old]
                    setattr(new, field, [y for x in xs for y in (x if isinstance(x, list) else [x])])
            operand, x = heads.get(id(node), (None, None))
            a = subst.get(operand)
            if isinstance(a, ast.Name) and a.id in self.shadowed:
                # a shadowed operand's float is its shadow, unless that is None
                test = ast.Compare(ast.Name(SHADOW + a.id, ast.Load()), [ast.IsNot()], [ast.Constant(None)])
                take = ast.Assign([ast.Name(x, ast.Store())], ast.Name(SHADOW + a.id, ast.Load()))
                return ast.If(test, [take], [new])
            return new

        body = [rewrite(s) for s in stmts]
        if target is None:
            return body
        body = [y for x in body for y in (x if isinstance(x, list) else [x])]
        return [ast.copy_location(ast.While(ast.Constant(True), body, []), stmts[0])]


def _stores(s, name):
    """Whether statement s stores into name alone."""
    return isinstance(s, ast.Assign) and [getattr(t, "id", None) for t in s.targets] == [name]


def _names(node, ctx):
    """The names node and its children use in context ctx (ast.Load, ast.Store)."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def _bound(node):
    """The name node binds in its scope, if it binds one, other than as a
    def (_Fuser.scope)."""
    if isinstance(node, ast.Name):
        return None if isinstance(node.ctx, ast.Load) else node.id
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.alias):
        return (node.asname or node.name).split(".")[0]
    if isinstance(node, ast.MatchMapping):
        return node.rest
    if isinstance(node, (ast.ClassDef, ast.ExceptHandler, ast.MatchAs, ast.MatchStar)):
        return node.name
    return None


class _Rename(ast.NodeTransformer):
    """Renames names: to those of the map given, or every name, argument
    and function to its prefixed name (KERNEL)."""

    def __init__(self, names=None):
        self.names = names

    def new(self, name):
        return KERNEL + name if self.names is None else self.names.get(name, name)

    def visit_Name(self, node):
        node.id = self.new(node.id)
        return node

    def visit_arg(self, node):
        node.arg = self.new(node.arg)
        return node

    def visit_FunctionDef(self, node):
        node.name = self.new(node.name)
        return self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        if node.name is not None:
            node.name = self.new(node.name)
        return self.generic_visit(node)


def _fold(stmts):
    """stmts without the branches that tests of the substituted constants
    (True, not False, True or False, False and ...) never take, nor the
    statements after a return or raise; a body folded to nothing is a
    pass."""
    out = []
    for s in stmts:
        truth = _truth(s.test) if isinstance(s, ast.If) else None
        if truth is not None:
            out += _fold(s.body if truth else s.orelse)
        else:
            for field in ("body", "orelse", "finalbody"):
                if isinstance(getattr(s, field, None), list):
                    setattr(s, field, _fold(getattr(s, field)) or ([ast.Pass()] if field == "body" else []))
            for h in getattr(s, "handlers", ()):
                h.body = _fold(h.body) or [ast.Pass()]
            out.append(s)
        if out and isinstance(out[-1], (ast.Return, ast.Raise)):
            break
    return out


def _truth(e):
    """The truth of test e when only constants decide it, else None."""
    if isinstance(e, ast.Constant):
        return bool(e.value)
    if isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.Not):
        v = _truth(e.operand)
        return None if v is None else not v
    if isinstance(e, ast.BoolOp):
        stop = isinstance(e.op, ast.Or)  # the value that ends the test
        for x in e.values:
            v = _truth(x)
            if v is None or v == stop:
                return v
        return not stop
    return None
