"""The whole-program layer under camp-lint's flow-aware rules.

The per-file rule engine (``engine.py``) can prove *local* invariants;
races, blocking-in-async, and lock-order inversions are properties of
how functions call each other **across** files.  This module builds
that cross-file view once per lint run:

- a **module graph**: every Python file under the scan roots parsed
  into a :class:`ModuleInfo` (dotted module name, import map with
  relative imports resolved against the package layout, top-level
  functions and classes);
- a **symbol table**: qualified name (``repro.serve.coalescer.
  QueryCoalescer._count``) -> :class:`FunctionInfo`;
- a **call graph**: per function, the :class:`CallSite` list with each
  callee resolved where static analysis can - direct names, imported
  names, ``self.method``, and attribute calls on receivers whose class
  is known from a constructor assignment or a parameter annotation;
- **dispatch edges**: call sites that move a function reference into
  another execution context (``run_in_executor``, ``threading.Thread
  (target=...)``, ``pool.submit``/``map``, ``signal.signal``,
  ``asyncio.create_task``), tagged with the context they dispatch into
  (consumed by :mod:`repro.lint.contexts`).

Resolution is deliberately conservative: an attribute call whose
receiver type cannot be pinned resolves to ``None`` and simply drops
out of the graph (a false *negative*, never a false positive).  The
known limits are catalogued in ``docs/LINT.md``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .engine import FileContext

#: Constructor calls whose result is a synchronization primitive; such
#: attributes are never themselves "shared state" for RACE01 and their
#: ``with`` blocks are the lock scopes LOCK01/RACE01 reason about.
LOCK_TYPES = {"threading.Lock", "threading.RLock", "threading.Condition",
              "threading.Semaphore", "threading.BoundedSemaphore"}

#: Thread-safe containers / signals: method calls on these are
#: synchronized by construction and do not count as racy accesses.
THREADSAFE_TYPES = LOCK_TYPES | {
    "threading.Event", "threading.local", "queue.Queue",
    "queue.SimpleQueue", "queue.LifoQueue", "queue.PriorityQueue",
    "asyncio.Queue", "asyncio.Event", "asyncio.Lock",
}

#: Dispatch context tags (see :mod:`repro.lint.contexts`).
CTX_EVENT_LOOP = "event-loop"
CTX_THREAD = "thread"
CTX_POOL = "pool-worker"
CTX_SIGNAL = "signal"
CTX_MAIN = "main"


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/serve/coalescer.py`` -> ``repro.serve.coalescer``;
    package ``__init__`` files name the package itself.
    """
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def shallow_walk(fn_node: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body without descending into nested ``def``s or
    lambdas.

    A nested function runs when *someone calls it*, not where it is
    defined - its body must not contribute call edges (or blocking
    calls, for ASYNC01) to the enclosing function's scope.
    """
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Local name -> canonical dotted origin, relative imports included.

    Unlike the per-file map the DET01 rule grew up with, this one knows
    which module it belongs to, so ``from ..runtime.errors import
    StoreError`` inside ``repro.serve.coalescer`` resolves to
    ``repro.runtime.errors.StoreError``.
    """

    def __init__(self, module: str, tree: Optional[ast.Module]):
        self.module = module
        self.origins: Dict[str, str] = {}
        if tree is not None:
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    self._add_import(node)
                elif isinstance(node, ast.ImportFrom):
                    self._add_import_from(node)

    def _add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.origins[local] = (alias.name if alias.asname
                                   else alias.name.split(".")[0])

    def _add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level:
            # Relative: drop ``level`` trailing components from the
            # importing module's dotted name (the module itself counts
            # as one), then append the stated module, if any.
            base_parts = self.module.split(".")
            base_parts = base_parts[: max(0, len(base_parts) - node.level)]
            base = ".".join(base_parts)
            target = (f"{base}.{node.module}" if node.module else base)
        else:
            target = node.module or ""
        if not target:
            return
        for alias in node.names:
            self.origins[alias.asname or alias.name] = \
                f"{target}.{alias.name}"

    def canonical(self, dotted: str) -> str:
        head, _, rest = dotted.partition(".")
        origin = self.origins.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


@dataclasses.dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Resolved callee qualified name, or ``None`` (out of reach).
    callee: Optional[str]
    #: ``None`` for a plain call; a CTX_* tag when the call moves its
    #: function-reference argument into another execution context
    #: (then :attr:`callee` is the *dispatched* function).
    dispatch: Optional[str] = None


@dataclasses.dataclass
class FunctionInfo:
    """One function or method in the program."""

    qname: str
    module: str
    relpath: str
    node: ast.AST   # FunctionDef | AsyncFunctionDef
    #: Owning class qname for methods, ``None`` at module level.
    cls: Optional[str] = None
    is_async: bool = False
    calls: List[CallSite] = dataclasses.field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[1]


@dataclasses.dataclass
class ClassInfo:
    """One class definition: methods, lock attributes, attr types."""

    qname: str
    module: str
    relpath: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = dataclasses.field(
        default_factory=dict)
    #: ``self.X`` attributes assigned a LOCK_TYPES constructor.
    lock_attrs: Set[str] = dataclasses.field(default_factory=set)
    #: ``self.X`` attributes assigned a THREADSAFE_TYPES constructor.
    threadsafe_attrs: Set[str] = dataclasses.field(default_factory=set)
    #: ``self.X`` -> class qname, where the assigned value's class is
    #: known (constructor call or annotated parameter).
    attr_types: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: Base-class qnames resolvable inside the program.
    bases: List[str] = dataclasses.field(default_factory=list)


class ModuleInfo:
    """One parsed Python file in the program."""

    def __init__(self, ctx: FileContext):
        self.relpath = ctx.relpath
        self.name = module_name_for(ctx.relpath)
        self.tree = ctx.tree
        self.imports = ImportMap(self.name, self.tree)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Module-level names assigned a LOCK_TYPES constructor.
        self.lock_globals: Set[str] = set()
        if self.tree is not None:
            self._collect()

    def _collect(self) -> None:
        assert self.tree is not None
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{self.name}.{node.name}"
                self.functions[qname] = FunctionInfo(
                    qname=qname, module=self.name, relpath=self.relpath,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef))
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                if isinstance(value, ast.Call):
                    dotted = dotted_name(value.func)
                    if dotted and (self.imports.canonical(dotted)
                                   in LOCK_TYPES):
                        targets = (node.targets
                                   if isinstance(node, ast.Assign)
                                   else [node.target])
                        for target in targets:
                            if isinstance(target, ast.Name):
                                self.lock_globals.add(target.id)

    def _collect_class(self, node: ast.ClassDef) -> None:
        qname = f"{self.name}.{node.name}"
        info = ClassInfo(qname=qname, module=self.name,
                         relpath=self.relpath, node=node)
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted:
                info.bases.append(self.imports.canonical(dotted))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qname = f"{qname}.{stmt.name}"
                fn = FunctionInfo(
                    qname=method_qname, module=self.name,
                    relpath=self.relpath, node=stmt, cls=qname,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef))
                info.methods[stmt.name] = fn
                self.functions[method_qname] = fn
        self._collect_attr_types(info)
        self.classes[qname] = info

    def _collect_attr_types(self, info: ClassInfo) -> None:
        """Pin ``self.X`` attribute types where statically visible."""
        for fn in info.methods.values():
            annotations = _param_annotations(fn.node, self.imports)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute) and
                            isinstance(target.value, ast.Name) and
                            target.value.id == "self"):
                        continue
                    attr = target.attr
                    typed = _value_type(node.value, self.imports,
                                        annotations)
                    if typed is None:
                        continue
                    if typed in LOCK_TYPES:
                        info.lock_attrs.add(attr)
                        info.threadsafe_attrs.add(attr)
                    elif typed in THREADSAFE_TYPES:
                        info.threadsafe_attrs.add(attr)
                    else:
                        info.attr_types[attr] = typed


def _param_annotations(fn: ast.AST, imports: ImportMap
                       ) -> Dict[str, str]:
    """Parameter name -> canonical annotated type, where nameable."""
    out: Dict[str, str] = {}
    args = fn.args
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        for arg in group:
            typed = _annotation_type(arg.annotation, imports)
            if typed is not None:
                out[arg.arg] = typed
    return out


def _annotation_type(node: Optional[ast.AST],
                     imports: ImportMap) -> Optional[str]:
    """Canonical type named by an annotation; unwraps ``Optional[T]``."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: a bare class name is worth resolving.
        name = node.value.strip().strip('"')
        if name.isidentifier():
            return imports.canonical(name)
        return None
    if isinstance(node, ast.Subscript):
        wrapper = dotted_name(node.value)
        if wrapper and wrapper.rsplit(".", 1)[-1] == "Optional":
            return _annotation_type(node.slice, imports)
        return None
    dotted = dotted_name(node)
    return imports.canonical(dotted) if dotted else None


def _value_type(value: ast.AST, imports: ImportMap,
                annotations: Dict[str, str]) -> Optional[str]:
    """Type of an assigned value: constructor call or annotated param."""
    if isinstance(value, ast.Call):
        dotted = dotted_name(value.func)
        if dotted is None:
            return None
        canonical = imports.canonical(dotted)
        # Constructor heuristic: a call whose final component is
        # CapWords is (almost always) a class instantiation.
        tail = canonical.rsplit(".", 1)[-1]
        if tail[:1].isupper():
            return canonical
        return None
    if isinstance(value, ast.Name):
        return annotations.get(value.id)
    return None


#: ``pool.submit(fn, ...)`` / ``executor.map(fn, ...)`` attributes.
_SUBMIT_ATTRS = {"submit", "map"}
#: Known thread-pool receiver types (dispatch lands on a thread, not a
#: worker process).
_THREAD_POOL_TYPES = {"concurrent.futures.ThreadPoolExecutor",
                      "ThreadPoolExecutor"}
#: Coroutine-scheduling entry points; the scheduled function is (and
#: must be) async, so these only *confirm* the event-loop context.
_TASK_SPAWNERS = {"asyncio.create_task", "asyncio.ensure_future",
                  "asyncio.run"}


class ProgramGraph:
    """Symbol table + call graph + dispatch edges over one lint run."""

    def __init__(self, modules: Dict[str, ModuleInfo],
                 root=None):
        self.modules = modules          # module name -> info
        self.root = root
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        for info in modules.values():
            self.functions.update(info.functions)
            self.classes.update(info.classes)
        self._method_index: Dict[str, List[str]] = {}
        for cls in self.classes.values():
            for name in cls.methods:
                self._method_index.setdefault(name, []).append(cls.qname)
        for info in modules.values():
            self._resolve_module(info)
        #: Per-whole-program-rule memo (rule id -> computed findings),
        #: so the engine's per-file loop pays the analysis once.
        self.rule_cache: Dict[str, object] = {}

    # -- construction --------------------------------------------------------
    @classmethod
    def build(cls, contexts: Iterable[FileContext],
              root=None) -> "ProgramGraph":
        modules: Dict[str, ModuleInfo] = {}
        for ctx in contexts:
            if not ctx.is_python:
                continue
            info = ModuleInfo(ctx)
            modules[info.name] = info
        return cls(modules, root=root)

    # -- lookups -------------------------------------------------------------
    def method_on(self, cls_qname: str,
                  method: str) -> Optional[FunctionInfo]:
        """Resolve ``method`` on a class, walking resolvable bases."""
        seen: Set[str] = set()
        stack = [cls_qname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None

    # -- call resolution -----------------------------------------------------
    def _resolve_module(self, info: ModuleInfo) -> None:
        for fn in info.functions.values():
            local_types = self._local_types(fn, info)
            for node in shallow_walk(fn.node):
                if isinstance(node, ast.Call):
                    fn.calls.extend(
                        self._resolve_call(node, fn, info, local_types))

    def _local_types(self, fn: FunctionInfo,
                     info: ModuleInfo) -> Dict[str, str]:
        types = _param_annotations(fn.node, info.imports)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and \
                    len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                typed = _value_type(node.value, info.imports, types)
                if typed is not None:
                    types[node.targets[0].id] = typed
        return types

    def _resolve_ref(self, node: ast.AST, fn: FunctionInfo,
                     info: ModuleInfo,
                     local_types: Dict[str, str]) -> Optional[str]:
        """Resolve a function *reference* (callee or dispatch target)."""
        if isinstance(node, ast.Call):
            # ``create_task(self._run())``: the reference is the
            # called coroutine function.
            return self._resolve_ref(node.func, fn, info, local_types)
        if isinstance(node, ast.Name):
            qname = f"{info.name}.{node.id}"
            if qname in info.functions:
                return qname
            canonical = info.imports.canonical(node.id)
            if canonical in self.functions:
                return canonical
            # An imported class used as ``Cls(...)``: constructor.
            if canonical in self.classes:
                init = self.method_on(canonical, "__init__")
                return init.qname if init else None
            return None
        if isinstance(node, ast.Attribute):
            receiver = node.value
            attr = node.attr
            if isinstance(receiver, ast.Name):
                if receiver.id == "self" and fn.cls is not None:
                    target = self.method_on(fn.cls, attr)
                    if target is not None:
                        return target.qname
                    return None
                # Module alias or classname receiver.
                canonical = info.imports.canonical(
                    f"{receiver.id}.{attr}")
                if canonical in self.functions:
                    return canonical
                if canonical in self.classes:
                    init = self.method_on(canonical, "__init__")
                    return init.qname if init else None
                # Typed local variable.
                typed = local_types.get(receiver.id)
                if typed is not None:
                    resolved = self._typed_method(typed, attr)
                    if resolved is not None:
                        return resolved
                return None
            if isinstance(receiver, ast.Attribute) and \
                    isinstance(receiver.value, ast.Name) and \
                    receiver.value.id == "self" and fn.cls is not None:
                # ``self.coalescer.submit`` -> attr-typed receiver.
                cls = self.classes.get(fn.cls)
                if cls is not None:
                    typed = cls.attr_types.get(receiver.attr)
                    if typed is not None:
                        return self._typed_method(typed, attr)
            return None
        return None

    def _typed_method(self, typed: str, attr: str) -> Optional[str]:
        canonical = self._canonical_class(typed)
        if canonical is None:
            return None
        target = self.method_on(canonical, attr)
        return target.qname if target else None

    def _canonical_class(self, typed: str) -> Optional[str]:
        if typed in self.classes:
            return typed
        # An imported type annotated by bare name: unique-class match.
        tail = typed.rsplit(".", 1)[-1]
        candidates = [qname for qname in self.classes
                      if qname.rsplit(".", 1)[-1] == tail]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _resolve_call(self, node: ast.Call, fn: FunctionInfo,
                      info: ModuleInfo,
                      local_types: Dict[str, str]) -> List[CallSite]:
        sites: List[CallSite] = []
        func = node.func
        dotted = dotted_name(func)
        canonical = info.imports.canonical(dotted) if dotted else None

        # Dispatch edges first: the interesting argument is a function
        # reference that will run in another context.
        if isinstance(func, ast.Attribute) and \
                func.attr == "run_in_executor" and len(node.args) >= 2:
            target = self._resolve_ref(node.args[1], fn, info,
                                       local_types)
            sites.append(CallSite(node, target, dispatch=CTX_THREAD))
            return sites
        if canonical == "threading.Thread" or (
                canonical and canonical.endswith("threading.Thread")):
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = self._resolve_ref(keyword.value, fn, info,
                                               local_types)
                    sites.append(CallSite(node, target,
                                          dispatch=CTX_THREAD))
                    return sites
        if canonical == "signal.signal" and len(node.args) >= 2:
            target = self._resolve_ref(node.args[1], fn, info,
                                       local_types)
            sites.append(CallSite(node, target, dispatch=CTX_SIGNAL))
            return sites
        if canonical in _TASK_SPAWNERS or (
                isinstance(func, ast.Attribute) and
                func.attr in ("create_task", "ensure_future")):
            if node.args:
                target = self._resolve_ref(node.args[0], fn, info,
                                           local_types)
                sites.append(CallSite(node, target,
                                      dispatch=CTX_EVENT_LOOP))
                return sites
        if isinstance(func, ast.Attribute) and \
                func.attr in _SUBMIT_ATTRS and node.args:
            receiver_type = None
            if isinstance(func.value, ast.Name):
                receiver_type = local_types.get(func.value.id)
            elif isinstance(func.value, ast.Attribute) and \
                    isinstance(func.value.value, ast.Name) and \
                    func.value.value.id == "self" and fn.cls:
                cls = self.classes.get(fn.cls)
                receiver_type = (cls.attr_types.get(func.value.attr)
                                 if cls else None)
            pool_ctx = (CTX_THREAD if receiver_type in _THREAD_POOL_TYPES
                        else CTX_POOL)
            target = self._resolve_ref(node.args[0], fn, info,
                                       local_types)
            if target is not None:
                sites.append(CallSite(node, target, dispatch=pool_ctx))
                # fall through: ``submit`` itself is also a plain call
                # on the receiver, but an unresolved one - done here.
                return sites

        # Plain call edge.
        target = self._resolve_ref(func, fn, info, local_types)
        sites.append(CallSite(node, target))
        return sites


def build_program(contexts: Sequence[FileContext],
                  root=None) -> ProgramGraph:
    """Convenience wrapper used by the engine and by ``lint_source``."""
    return ProgramGraph.build(contexts, root=root)
