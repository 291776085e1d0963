"""PURE01 - process-pool workers must not touch module-level state.

Functions handed to the :class:`Executor` pool (``executor.map(fn,
...)``, ``pool.submit(fn, ...)``) run in forked/spawned worker
processes.  A worker that mutates module globals appears to work under
``-j 1`` and silently diverges under ``-j N`` (each process mutates its
own copy), and one that *closes over* enclosing state cannot even be
pickled to a spawned worker.  The rule resolves the worker function at
each submission site and flags: lambdas and nested functions (closure
capture), ``global``/``nonlocal`` statements, and writes or mutating
method calls on names the worker does not bind locally.

The batched solver kernels (docs/SOLVER.md) extend the same discipline
to arrays: a *module-level* numpy buffer (``_SCRATCH = np.zeros(...)``)
is shared mutable state - one batch call's leftovers leak into the
next, and workers mutate private copies that diverge from the parent.
Kernels must allocate their lane arrays per call, so any module-level
assignment whose value is a numpy array allocator is flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from ..engine import FileContext, Finding, Rule
from .determinism import _ImportMap, _dotted

#: Call attributes treated as in-place mutation of the receiver.
_MUTATORS = {"append", "extend", "add", "update", "insert", "pop",
             "popitem", "remove", "discard", "clear", "setdefault",
             "sort", "reverse"}
#: Submission-call attributes whose first argument is a pool worker.
_SUBMIT_ATTRS = {"map", "submit"}

#: numpy allocators whose result, bound at module level, is a shared
#: mutable scratch buffer.
_NP_ALLOCATORS = {
    f"numpy.{name}" for name in
    ("empty", "zeros", "ones", "full",
     "empty_like", "zeros_like", "ones_like", "full_like")}


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(fn: ast.FunctionDef) -> Set[str]:
    """Every name the function binds locally (args, assignments, ...)."""
    bound: Set[str] = set()
    args = fn.args
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        bound.update(a.arg for a in group)
    for special in (args.vararg, args.kwarg):
        if special is not None:
            bound.add(special.arg)

    def collect_target(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect_target(element)
        elif isinstance(target, ast.Starred):
            collect_target(target.value)

    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                collect_target(target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            collect_target(node.target)
        elif isinstance(node, ast.comprehension):
            collect_target(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    collect_target(item.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return bound


class WorkerPurityRule(Rule):
    id = "PURE01"
    description = ("process-pool workers neither close over nor mutate "
                   "module-level state")
    rationale = ("a worker mutating globals works at -j 1 and silently "
                 "diverges at -j N; closures cannot reach spawned "
                 "workers at all")
    kind = "python"
    scopes = ("src/repro",)

    def check(self, ctx: FileContext, program) -> Iterator[Finding]:
        tree = ctx.tree
        if tree is None:
            return
        yield from self._check_module_scratch(ctx, tree)
        top_level: Dict[str, ast.FunctionDef] = {
            node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
        checked: Set[str] = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Attribute) and
                    node.func.attr in _SUBMIT_ATTRS and node.args):
                continue
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                yield self.finding(
                    ctx, worker,
                    "lambda submitted as a pool worker: it closes over "
                    "its defining scope and cannot be pickled to a "
                    "spawned worker; use a module-level function")
                continue
            if not isinstance(worker, ast.Name):
                continue   # bound methods etc.: out of static reach
            fn = top_level.get(worker.id)
            if fn is None:
                # Defined in a nested scope (a closure) in this module?
                nested = any(
                    isinstance(inner, ast.FunctionDef) and
                    inner.name == worker.id
                    for outer in ast.walk(tree)
                    if isinstance(outer, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                    for inner in ast.walk(outer) if inner is not outer)
                if nested:
                    yield self.finding(
                        ctx, node,
                        f"worker `{worker.id}` is a nested function: "
                        f"it closes over enclosing state and cannot be "
                        f"pickled to a spawned worker; hoist it to "
                        f"module level")
                continue
            if fn.name in checked:
                continue
            checked.add(fn.name)
            yield from self._check_worker(ctx, fn)

    def _check_module_scratch(self, ctx: FileContext,
                              tree: ast.Module) -> Iterator[Finding]:
        """Flag module-level numpy scratch-array bindings."""
        imports = _ImportMap()
        imports.visit(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            dotted = _dotted(value.func)
            if dotted is None:
                continue
            if imports.canonical(dotted) in _NP_ALLOCATORS:
                yield self.finding(
                    ctx, node,
                    f"module-level numpy buffer `{dotted}(...)` is a "
                    f"shared scratch array: one batch call's leftovers "
                    f"leak into the next, and -j N workers mutate "
                    f"diverging copies; allocate per call instead")

    def _check_worker(self, ctx: FileContext,
                      fn: ast.FunctionDef) -> Iterator[Finding]:
        bound = _bound_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx, node,
                    f"pool worker `{fn.name}` declares "
                    f"`global {', '.join(node.names)}`: module state "
                    f"mutated in a worker is lost (each process has "
                    f"its own copy)")
            elif isinstance(node, ast.Nonlocal):
                yield self.finding(
                    ctx, node,
                    f"pool worker `{fn.name}` declares `nonlocal`: "
                    f"workers cannot share enclosing scopes across "
                    f"processes")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = _root_name(target)
                        if root is not None and root not in bound:
                            yield self.finding(
                                ctx, node,
                                f"pool worker `{fn.name}` writes to "
                                f"`{root}`, which it does not bind "
                                f"locally: cross-process mutation of "
                                f"shared state is a silent no-op race")
            elif (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Attribute) and
                    node.func.attr in _MUTATORS):
                root = _root_name(node.func)
                if root is not None and root not in bound:
                    yield self.finding(
                        ctx, node,
                        f"pool worker `{fn.name}` calls "
                        f"`.{node.func.attr}()` on `{root}`, which it "
                        f"does not bind locally: mutating shared state "
                        f"in a worker diverges between -j 1 and -j N")
