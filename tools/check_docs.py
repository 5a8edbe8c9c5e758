#!/usr/bin/env python
"""Docs/CLI consistency check (run by CI and tests/test_docs.py).

Every ``python -m repro ...`` invocation inside a code fence of the
user-facing docs must name a subcommand the live parser actually has,
use only flags that subcommand defines, and (for ``store``) a valid
action.  Every documented HTTP call against the serve API (curl lines
and ``METHOD /api/v1/...`` mentions in fences) must match a route the
live router actually exposes, with the right method.  Every
``REPRO_*`` environment variable the docs name must be one that code
under ``src/`` or ``benchmarks/`` reads.  Every ``*.py`` file the
ARCHITECTURE.md module map names must exist in its package under
``src/repro/``, and every module there (``__init__.py`` aside) must be
named in the map.  This keeps README/ARCHITECTURE from drifting when the
CLI, API, knobs or modules evolve — the docs are checked against the
parser, route table and code themselves, not a list that would itself
go stale.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_FILES = ("README.md", "ARCHITECTURE.md", os.path.join("benchmarks", "README.md"))

# A doc may name a REPRO_* environment variable only if Python code under
# CODE_DIRS reads it, i.e. holds the name as a string literal (as in
# ``os.environ.get("REPRO_RESULT_STORE")``).
CODE_DIRS = ("src", "benchmarks")
ENV_NAME_RE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]")
ENV_READ_RE = re.compile(r"""["'](REPRO_[A-Z0-9_]*[A-Z0-9])["']""")

# The module map is the ARCHITECTURE.md fence that opens with
# ``src/repro/``; a ``├── name/`` line starts a package, and every
# ``*.py`` name below it must exist somewhere in that package.  Names
# above the first package line are top-level modules.
MODULE_MAP_DOC = "ARCHITECTURE.md"
PACKAGE_ROOT = os.path.join("src", "repro")
MODULE_MAP_PACKAGE_RE = re.compile(r"^[├└]── (\w+)/")
MODULE_NAME_RE = re.compile(r"\b\w+\.py\b")


def iter_fenced_commands(text: str):
    """Yield (line_number, command) for `python -m repro` fence lines."""
    in_fence = False
    pending: str = ""
    pending_line = 0
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        stripped = line.strip()
        if pending:
            pending += " " + stripped.rstrip("\\").strip()
            if not stripped.endswith("\\"):
                yield pending_line, pending
                pending = ""
            continue
        if "python -m repro" not in stripped:
            continue
        stripped = stripped.lstrip("$").strip()
        if not stripped.startswith("python -m repro"):
            continue  # prose mentioning the command mid-line
        if stripped.endswith("\\"):
            pending = stripped.rstrip("\\").strip()
            pending_line = number
        else:
            yield number, stripped


# Path segments may be concrete values, shell variables ($JOB) or the
# route's own {placeholder}; queries and quotes end the path.  Bare
# ``/metrics`` is the one route outside the versioned prefix (the
# conventional Prometheus scrape path), so it is matched explicitly.
API_PATH_RE = re.compile(r"/api/v\d+[A-Za-z0-9_\-/{}$.]*|/metrics\b")
API_METHOD_RE = re.compile(r"^(GET|POST|PUT|DELETE|PATCH)\s+((?:/api|/metrics)\S*)")


def _api_calls_from_line(number: int, line: str):
    """Yield (line_number, method, path) for API references in one line."""
    paths = [p.split("?")[0].rstrip("/.") or "/" for p in API_PATH_RE.findall(line)]
    if not paths:
        return
    if "curl" in line:
        explicit = re.search(r"-X\s*([A-Z]+)", line)
        if explicit:
            method = explicit.group(1)
        elif re.search(r"(^|\s)(-d|--data|--data-binary|--data-raw|--json)\b", line):
            method = "POST"  # curl's own data-implies-POST rule
        else:
            method = "GET"
        for path in paths:
            yield number, method, path
        return
    prose = API_METHOD_RE.match(line.strip("`"))
    if prose:
        yield number, prose.group(1), prose.group(2).split("?")[0].strip("`")


def iter_fenced_api_calls(text: str):
    """Yield (line_number, method, path) for fenced serve-API calls."""
    in_fence = False
    pending = ""
    pending_line = 0
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            continue
        stripped = line.strip()
        if pending:
            pending += " " + stripped.rstrip("\\").strip()
            if not stripped.endswith("\\"):
                yield from _api_calls_from_line(pending_line, pending)
                pending = ""
            continue
        if (
            "/api/" not in stripped
            and "/metrics" not in stripped
            and "curl" not in stripped
        ):
            continue
        stripped = stripped.lstrip("$").strip()
        if stripped.endswith("\\"):
            pending = stripped.rstrip("\\").strip()
            pending_line = number
        else:
            yield from _api_calls_from_line(number, stripped)


def env_vars_read(root: str) -> set:
    """``REPRO_*`` names that Python code under ``CODE_DIRS`` reads."""
    names = set()
    for directory in CODE_DIRS:
        for folder, _, files in os.walk(os.path.join(root, directory)):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as handle:
                        names.update(ENV_READ_RE.findall(handle.read()))
    return names


def stale_env_vars(text: str, known: set):
    """Yield (line_number, name) for ``REPRO_*`` names not in ``known``."""
    for number, line in enumerate(text.splitlines(), start=1):
        for name in ENV_NAME_RE.findall(line):
            if name not in known:
                yield number, name


def module_map_names(text: str):
    """Yield (line_number, package, name) for module-map ``*.py`` names."""
    in_map = False
    package = ""
    for number, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "src/repro/":
            in_map = True
        elif in_map and line.lstrip().startswith("```"):
            return
        elif in_map:
            match = MODULE_MAP_PACKAGE_RE.match(line)
            if match:
                package = match.group(1)
            for name in MODULE_NAME_RE.findall(line):
                yield number, package, name


def missing_modules(text: str, root: str):
    """Yield (line_number, path) for module-map names absent on disk."""
    present = {}
    for number, package, name in module_map_names(text):
        if package not in present:
            directory = os.path.join(root, PACKAGE_ROOT, package)
            present[package] = {
                found for _, _, files in os.walk(directory) for found in files
            }
        if name not in present[package]:
            yield number, f"{package}/{name}"


def unmapped_modules(text: str, root: str):
    """Yield ``src/repro``-relative paths of modules the map never names.

    A module counts as named when its file name appears under its
    top-level package (``exp/backends/base.py`` under ``exp/``).
    """
    named = {(package, name) for _, package, name in module_map_names(text)}
    base = os.path.join(root, PACKAGE_ROOT)
    for folder, _, files in sorted(os.walk(base)):
        relative = os.path.relpath(folder, base)
        package = "" if relative == os.curdir else relative.split(os.sep)[0]
        for name in sorted(files):
            if (
                name.endswith(".py")
                and name != "__init__.py"
                and (package, name) not in named
            ):
                yield os.path.relpath(os.path.join(folder, name), base)


def _template_matches(template: str, path: str) -> bool:
    t_parts = template.strip("/").split("/")
    p_parts = path.strip("/").split("/")
    if len(t_parts) != len(p_parts):
        return False
    # A {param} segment accepts any concrete value ($JOB, a job id, ...).
    return all(
        t.startswith("{") or t == p for t, p in zip(t_parts, p_parts)
    )


def check_api_call(method: str, path: str, routes) -> list:
    """All problems with one documented API call (empty = clean)."""
    if any(m == method and _template_matches(t, path) for m, t in routes):
        return []
    if any(_template_matches(t, path) for _, t in routes):
        allowed = sorted(m for m, t in routes if _template_matches(t, path))
        return [f"method {method} not allowed for {path} (allowed: {allowed})"]
    return [f"unknown API route {method} {path}"]


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:  # noqa: SLF001 (argparse has no public API)
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _check_flag_value(flag: str, value: str, action) -> list:
    """Validate one documented flag value against the parser's action.

    Checks ``choices`` membership (e.g. ``--design footprint``) and runs
    custom ``type`` callables (e.g. the ``--shard I/N`` parser), so a
    documented value the CLI would reject fails the docs check too.
    Placeholder-free docs are the norm here; plain-``str`` flags are
    left alone.
    """
    if action.choices is not None:
        if value not in {str(choice) for choice in action.choices}:
            return [
                f"invalid value {value!r} for {flag} "
                f"(one of {sorted(str(c) for c in action.choices)})"
            ]
        return []
    if action.type not in (None, str):
        try:
            action.type(value)
        except (ValueError, TypeError, argparse.ArgumentTypeError) as error:
            return [f"invalid value {value!r} for {flag}: {error}"]
    return []


def check_command(command: str, parser: argparse.ArgumentParser):
    """All problems with one documented command line (empty = clean)."""
    # Strip inline fence comments ("# ...") before tokenising.
    command = command.split("  #")[0].strip()
    tokens = command.split()[3:]  # drop "python -m repro"
    problems = []
    subcommands = _subparsers(parser)
    target = parser
    if tokens and not tokens[0].startswith("-"):
        name = tokens[0]
        if name not in subcommands:
            return [f"unknown subcommand {name!r} (have: {sorted(subcommands)})"]
        target = subcommands[name]
        tokens = tokens[1:]
        if name == "store":
            actions = next(
                a.choices for a in target._actions if a.dest == "action"
            )
            if not tokens or tokens[0] not in actions:
                problems.append(
                    f"store action must be one of {sorted(actions)}, "
                    f"got {tokens[:1]}"
                )
    known_flags = dict(target._option_string_actions)
    index = 0
    while index < len(tokens):
        token = tokens[index]
        index += 1
        if not token.startswith("--"):
            continue
        flag, equals, inline_value = token.partition("=")
        if flag not in known_flags:
            problems.append(f"unknown flag {flag!r}")
            continue
        action = known_flags[flag]
        if action.nargs == 0:  # store_true-style switches take no value
            continue
        value = inline_value if equals else None
        if value is None and index < len(tokens) and not tokens[index].startswith("--"):
            value = tokens[index]
            index += 1
        if value is not None:
            problems.extend(_check_flag_value(flag, value, action))
    return problems


def documented_subcommands(commands) -> set:
    """Subcommand names exercised by the documented invocations."""
    used = set()
    for _, command in commands:
        tokens = command.split("  #")[0].split()[3:]
        if tokens and not tokens[0].startswith("-"):
            used.add(tokens[0])
    return used


def main() -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.__main__ import build_parser

    from repro.serve import API_ROUTES

    parser = build_parser()
    env_vars = env_vars_read(REPO_ROOT)
    failures = []
    all_commands = []
    documented_calls = []
    api_calls = 0
    for doc in DOC_FILES:
        path = os.path.join(REPO_ROOT, doc)
        with open(path) as handle:
            text = handle.read()
        commands = list(iter_fenced_commands(text))
        all_commands.extend(commands)
        for number, command in commands:
            for problem in check_command(command, parser):
                failures.append(f"{doc}:{number}: {command!r}: {problem}")
        calls = list(iter_fenced_api_calls(text))
        api_calls += len(calls)
        documented_calls.extend(calls)
        for number, method, api_path in calls:
            for problem in check_api_call(method, api_path, API_ROUTES):
                failures.append(f"{doc}:{number}: {problem}")
        for number, name in stale_env_vars(text, env_vars):
            failures.append(
                f"{doc}:{number}: names ${name}, which no code under "
                f"{' or '.join(CODE_DIRS)} reads"
            )
        if doc == MODULE_MAP_DOC:
            if not any(module_map_names(text)):
                failures.append(f"{doc}: no module map (a `src/repro/` fence) found")
            for number, module in missing_modules(text, REPO_ROOT):
                failures.append(
                    f"{doc}:{number}: the module map names {module}, which "
                    f"does not exist under {PACKAGE_ROOT}"
                )
            for module in unmapped_modules(text, REPO_ROOT):
                failures.append(
                    f"{doc}: the module map never names {PACKAGE_ROOT}/{module}"
                )
        print(
            f"{doc}: {len(commands)} CLI invocation(s), "
            f"{len(calls)} API call(s) checked"
        )
    if api_calls == 0:
        failures.append(
            "the serve API (/api/v1) is never demonstrated in "
            f"{', '.join(DOC_FILES)}"
        )
    # Coverage in the other direction: every live subcommand (sweep,
    # report, store, ...) must be demonstrated in at least one doc
    # fence, so new CLI surface cannot land undocumented.
    missing = set(_subparsers(parser)) - documented_subcommands(all_commands)
    for name in sorted(missing):
        failures.append(
            f"subcommand {name!r} is never demonstrated in {', '.join(DOC_FILES)}"
        )
    # ... and every live API route must be demonstrated too: a route in
    # the table with no doc fence exercising it is undocumented surface
    # (this is what forces the coordinator/worker protocol into the docs).
    for method, template in API_ROUTES:
        if not any(
            m == method and _template_matches(template, p)
            for _, m, p in documented_calls
        ):
            failures.append(
                f"API route {method} {template} is never demonstrated in "
                f"{', '.join(DOC_FILES)}"
            )
    if failures:
        print("\nDocs/CLI inconsistencies:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("docs/CLI consistency: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
