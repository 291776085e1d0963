"""camp-lint: the rule engine behind ``python -m repro lint``.

The test suite can only *sample* CAMP's credibility invariants -
determinism of simulated runs, purity of the content-addressed cache
key, the closed Table 5 counter vocabulary.  camp-lint proves them
statically on every commit instead: each :class:`Rule` walks a file's
AST (or raw lines, for markdown) and emits structured
:class:`Finding` records; the CLI renders them as text or JSON and
fails the build while any finding is neither fixed, suppressed inline,
nor grandfathered in the checked-in baseline (``lint-baseline.json``).

Suppression syntax (``docs/LINT.md``):

- ``# camp-lint: disable=RULE1,RULE2 -- reason`` on the offending line
  silences those rules for that line only;
- ``# camp-lint: disable-file=RULE1`` anywhere in a file silences the
  rule for the whole file;
- a baseline entry (rule, path, snippet, justification) silences every
  occurrence of that exact snippet in that file - line-number moves do
  not invalidate it, edits to the flagged line do.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: Inline, line-scoped suppression directive.
_SUPPRESS_LINE = re.compile(r"camp-lint:\s*disable=([A-Z0-9_,\s]*[A-Z0-9])")
#: Whole-file suppression directive.
_SUPPRESS_FILE = re.compile(
    r"camp-lint:\s*disable-file=([A-Z0-9_,\s]*[A-Z0-9])")

#: Where a bare ``python -m repro lint`` looks for Python sources.
DEFAULT_PY_ROOTS: Tuple[str, ...] = ("src/repro",)
#: ... and for prose that must stay consistent with the code.
DEFAULT_DOC_ROOTS: Tuple[str, ...] = ("docs", "README.md", "DESIGN.md",
                                      "EXPERIMENTS.md")
#: Directory names never descended into.
_SKIP_DIRS = {".git", "__pycache__", ".repro-cache", ".pytest_cache",
              "node_modules"}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    #: Repo-relative POSIX path.
    path: str
    #: 1-based line (0 = file-level finding).
    line: int
    #: 1-based column (0 = unknown).
    col: int
    message: str
    #: The stripped source line, for reports and baseline identity.
    snippet: str = ""
    severity: str = "error"

    def key(self) -> str:
        """Line-number-free identity used for baseline matching."""
        return "|".join((self.rule, self.path, self.snippet))

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "col": self.col, "severity": self.severity,
                "message": self.message, "snippet": self.snippet}

    def render(self) -> str:
        location = f"{self.path}:{self.line}:{self.col}"
        return f"{location}: {self.rule} [{self.severity}] {self.message}"


class FileContext:
    """One file under analysis: source, split lines, lazily-parsed AST."""

    def __init__(self, path: Optional[pathlib.Path], relpath: str,
                 source: str):
        self.path = path
        self.relpath = relpath.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self._tree: Optional[ast.Module] = None
        self._syntax_error: Optional[SyntaxError] = None

    @property
    def is_python(self) -> bool:
        return self.relpath.endswith(".py")

    @property
    def tree(self) -> Optional[ast.Module]:
        """The parsed module, or ``None`` on a syntax error."""
        if self._tree is None and self._syntax_error is None:
            try:
                self._tree = ast.parse(self.source)
            except SyntaxError as exc:
                self._syntax_error = exc
        return self._tree

    @property
    def syntax_error(self) -> Optional[SyntaxError]:
        self.tree
        return self._syntax_error

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class for camp-lint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding a :class:`Finding` per violation.  The engine handles
    scoping, suppression directives and the baseline.
    """

    id: str = "RULE00"
    severity: str = "error"
    #: One-line summary (shown in reports and ``docs/LINT.md``).
    description: str = ""
    #: Why the invariant matters (the doc catalogue's rationale column).
    rationale: str = ""
    #: Which file kind the rule reads: "python", "markdown" or "any".
    kind: str = "python"
    #: Repo-relative path prefixes the rule is limited to (empty = all
    #: files of the matching kind under the scan roots).
    scopes: Tuple[str, ...] = ()
    #: Whole-program rules see the full :class:`~repro.lint.graph.
    #: ProgramGraph`; their findings for one file can change when any
    #: *other* file changes, so the result cache keys them on the
    #: whole-tree digest instead of the single file's hash.
    whole_program: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.is_python:
            if self.kind == "markdown":
                return False
        elif self.kind == "python":
            return False
        if not self.scopes:
            return True
        return any(ctx.relpath == scope or
                   ctx.relpath.startswith(scope.rstrip("/") + "/")
                   for scope in self.scopes)

    def check(self, ctx: FileContext, program) -> Iterator[Finding]:
        """Yield findings for one file.

        ``program`` is the shared :class:`~repro.lint.graph.
        ProgramGraph` over every Python file in the run (a single-file
        graph under ``lint_source``).  Per-file rules are free to
        ignore it.
        """
        raise NotImplementedError

    def finding(self, ctx: FileContext, node, message: str) -> Finding:
        """Build a Finding anchored at ``node`` (AST node or line int)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", -1) + 1
        return Finding(rule=self.id, path=ctx.relpath, line=line,
                       col=max(col, 0), message=message,
                       snippet=ctx.line(line), severity=self.severity)


def _directive_ids(match: "re.Match[str]") -> Set[str]:
    return {part.strip() for part in match.group(1).split(",")
            if part.strip()}


def file_suppressions(ctx: FileContext) -> Set[str]:
    """Rule ids disabled for the whole file via ``disable-file=``."""
    disabled: Set[str] = set()
    for match in _SUPPRESS_FILE.finditer(ctx.source):
        disabled |= _directive_ids(match)
    return disabled


def line_suppressions(text: str) -> Set[str]:
    """Rule ids disabled on one source line via ``disable=``."""
    match = _SUPPRESS_LINE.search(text)
    return _directive_ids(match) if match else set()


def _suppressed(finding: Finding, ctx: FileContext,
                file_disabled: Set[str]) -> bool:
    if finding.rule in file_disabled or "ALL" in file_disabled:
        return True
    raw = (ctx.lines[finding.line - 1]
           if 1 <= finding.line <= len(ctx.lines) else "")
    disabled = line_suppressions(raw)
    return finding.rule in disabled or "ALL" in disabled


def lint_file(ctx: FileContext, rules: Sequence[Rule],
              program=None, emit_syntax: bool = True) -> List[Finding]:
    """Run every applicable rule over one file, minus suppressions.

    Without an explicit ``program``, a single-file graph is built on
    the fly - enough for every per-file rule, and exactly what the
    fixture tests want for the flow-aware rules (the fixture *is* the
    program).
    """
    findings: List[Finding] = []
    if ctx.is_python and ctx.syntax_error is not None:
        if emit_syntax:
            err = ctx.syntax_error
            findings.append(Finding(
                rule="SYNTAX", path=ctx.relpath, line=err.lineno or 0,
                col=err.offset or 0,
                message=f"cannot parse file: {err.msg}",
                snippet=ctx.line(err.lineno or 0)))
        return findings
    if program is None:
        from .graph import build_program
        program = build_program([ctx] if ctx.is_python else [])
    file_disabled = file_suppressions(ctx)
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx, program):
            if not _suppressed(finding, ctx, file_disabled):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source: str, relpath: str,
                rules: Sequence[Rule]) -> List[Finding]:
    """Lint an in-memory source blob as if it lived at ``relpath``.

    The fixture-test entry point: scoped rules see ``relpath`` exactly
    as they would a real repo file, and the flow-aware rules see the
    blob as a complete single-module program.
    """
    return lint_file(FileContext(None, relpath, source), rules)


def default_root() -> pathlib.Path:
    """The repo root this package was imported from (src/repro/../..)."""
    root = pathlib.Path(__file__).resolve().parents[3]
    if (root / "src" / "repro").is_dir():
        return root
    return pathlib.Path.cwd()


def _want(path: pathlib.Path, kind: str) -> bool:
    if any(part in _SKIP_DIRS for part in path.parts):
        return False
    if kind == "python":
        return path.suffix == ".py"
    return path.suffix in (".md", ".rst")


def discover_files(root: pathlib.Path,
                   paths: Optional[Sequence[pathlib.Path]] = None
                   ) -> List[pathlib.Path]:
    """The files a lint run covers, sorted and de-duplicated.

    With explicit ``paths``, directories are walked for both kinds and
    files are taken verbatim.  Otherwise the defaults apply: every
    ``.py`` under :data:`DEFAULT_PY_ROOTS` plus every markdown file
    under :data:`DEFAULT_DOC_ROOTS`.
    """
    chosen: Set[pathlib.Path] = set()

    def add_tree(base: pathlib.Path, kinds: Tuple[str, ...]) -> None:
        if base.is_file():
            chosen.add(base)
            return
        if not base.is_dir():
            return
        for candidate in base.rglob("*"):
            if candidate.is_file() and any(_want(candidate, kind)
                                           for kind in kinds):
                chosen.add(candidate)

    if paths:
        for path in paths:
            add_tree(pathlib.Path(path), ("python", "markdown"))
    else:
        for rel in DEFAULT_PY_ROOTS:
            add_tree(root / rel, ("python",))
        for rel in DEFAULT_DOC_ROOTS:
            add_tree(root / rel, ("markdown",))
    return sorted(chosen)


def make_context(path: pathlib.Path, root: pathlib.Path) -> FileContext:
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return FileContext(path, relpath, path.read_text(encoding="utf-8"))


@dataclasses.dataclass
class LintRun:
    """The outcome of one engine pass (before baseline partitioning)."""

    findings: List[Finding]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings


def _worker_lint(payload: Tuple[str, str, Tuple[str, ...]]
                 ) -> List[Dict[str, object]]:
    """Process-pool worker: per-file rules over one in-memory file.

    Module-level and dict-in/dict-out so it pickles; whole-program
    rules never run here (a worker only sees one file).
    """
    relpath, source, rule_ids = payload
    from .rules import RULES_BY_ID
    rules = [RULES_BY_ID[rule_id] for rule_id in rule_ids]
    ctx = FileContext(None, relpath, source)
    return [finding.to_dict()
            for finding in lint_file(ctx, rules)]


def _run_local_rules(contexts: Sequence[FileContext],
                     rules: Sequence[Rule], program,
                     jobs: int) -> Dict[str, List[Finding]]:
    """Per-file rules over ``contexts``; fans out to processes when
    ``jobs`` > 1 and every rule is registry-known (picklable by id)."""
    from .rules import RULES_BY_ID
    parallelizable = (jobs > 1 and len(contexts) > 1 and
                      all(RULES_BY_ID.get(rule.id) is rule
                          for rule in rules))
    if parallelizable:
        import concurrent.futures
        rule_ids = tuple(rule.id for rule in rules)
        payloads = [(ctx.relpath, ctx.source, rule_ids)
                    for ctx in contexts]
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    max_workers=jobs) as pool:
                raw = list(pool.map(_worker_lint, payloads,
                                    chunksize=4))
            return {ctx.relpath:
                    [Finding(**entry)      # type: ignore[arg-type]
                     for entry in entries]
                    for ctx, entries in zip(contexts, raw)}
        except (OSError, ValueError, ImportError,
                concurrent.futures.process.BrokenProcessPool):
            pass    # no usable pool (sandbox, low fd limit): serial
    return {ctx.relpath: lint_file(ctx, rules, program)
            for ctx in contexts}


def run_lint(root: Optional[pathlib.Path] = None,
             paths: Optional[Sequence[pathlib.Path]] = None,
             rules: Optional[Sequence[Rule]] = None, *,
             jobs: int = 1, cache=None) -> LintRun:
    """Lint ``paths`` (default: the standard roots) under ``root``.

    ``jobs`` > 1 fans per-file rules out to worker processes; the
    whole-program passes always run in-process over the shared graph.
    ``cache`` is a :class:`repro.lint.cache.LintCache`; hits skip both
    parsing and rule execution for unchanged files (per-file rules are
    keyed on the file hash alone, whole-program rules additionally on
    a digest of every Python file in the run).
    """
    if root is None:
        root = default_root()
    if rules is None:
        from .rules import ALL_RULES
        rules = ALL_RULES
    from .graph import build_program
    files = discover_files(root, paths)
    contexts = [make_context(path, root) for path in files]
    local_rules = [rule for rule in rules if not rule.whole_program]
    program_rules = [rule for rule in rules if rule.whole_program]

    findings: List[Finding] = []
    if cache is None:
        program = build_program(
            [ctx for ctx in contexts if ctx.is_python], root=root)
        local = _run_local_rules(contexts, local_rules, program, jobs)
        for ctx in contexts:
            findings.extend(local[ctx.relpath])
            if ctx.is_python and ctx.syntax_error is None:
                findings.extend(lint_file(ctx, program_rules, program,
                                          emit_syntax=False))
    else:
        from .cache import content_hash
        hashes = {ctx.relpath: content_hash(ctx.source)
                  for ctx in contexts}
        program_digest = _program_digest(root, contexts, hashes)
        local_hit: Dict[str, List[Finding]] = {}
        program_hit: Dict[str, List[Finding]] = {}
        local_miss: List[FileContext] = []
        program_miss: List[FileContext] = []
        for ctx in contexts:
            local_key = f"{ctx.relpath}|{hashes[ctx.relpath]}|local"
            cached = cache.get(local_key)
            if cached is None:
                local_miss.append(ctx)
            else:
                local_hit[ctx.relpath] = cached
            if not ctx.is_python:
                program_hit[ctx.relpath] = []
                continue
            program_key = (f"{ctx.relpath}|{hashes[ctx.relpath]}"
                           f"|program|{program_digest}")
            cached = cache.get(program_key)
            if cached is None:
                program_miss.append(ctx)
            else:
                program_hit[ctx.relpath] = cached

        program = None
        if local_miss or program_miss:
            program = build_program(
                [ctx for ctx in contexts if ctx.is_python], root=root)
        if local_miss:
            computed = _run_local_rules(local_miss, local_rules,
                                        program, jobs)
            for ctx in local_miss:
                result = computed[ctx.relpath]
                local_hit[ctx.relpath] = result
                cache.put(
                    f"{ctx.relpath}|{hashes[ctx.relpath]}|local",
                    result)
        for ctx in program_miss:
            result = ([] if ctx.syntax_error is not None else
                      lint_file(ctx, program_rules, program,
                                emit_syntax=False))
            program_hit[ctx.relpath] = result
            cache.put(f"{ctx.relpath}|{hashes[ctx.relpath]}"
                      f"|program|{program_digest}", result)
        for ctx in contexts:
            findings.extend(local_hit[ctx.relpath])
            findings.extend(program_hit[ctx.relpath])
        cache.save()
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintRun(findings=findings, files_checked=len(files))


def _program_digest(root: pathlib.Path,
                    contexts: Sequence[FileContext],
                    hashes: Dict[str, str]) -> str:
    """Digest of everything the whole-program passes can observe."""
    import hashlib
    digest = hashlib.sha256()
    for ctx in contexts:
        if ctx.is_python:
            digest.update(ctx.relpath.encode())
            digest.update(hashes[ctx.relpath].encode())
    from .rules.schema import PIN_FILENAME
    pin = root / PIN_FILENAME
    if pin.is_file():
        digest.update(pin.read_bytes())
    return digest.hexdigest()
