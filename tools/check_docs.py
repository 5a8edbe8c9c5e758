#!/usr/bin/env python
"""Docs/CLI consistency check (run by CI and tests/test_docs.py).

Every ``python -m repro ...`` invocation inside a code fence of the
user-facing docs must name a subcommand the live parser actually has,
use only flags that subcommand defines, and (for ``store``) a valid
action.  Every documented HTTP call against the serve API (curl lines
and ``METHOD /api/v1/...`` mentions in fences) must match a route the
live router actually exposes, with the right method.  This keeps
README/ARCHITECTURE from drifting when the CLI or API evolves — the
docs are checked against the parser and route table themselves, not a
list that would itself go stale.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_FILES = ("README.md", "ARCHITECTURE.md", os.path.join("benchmarks", "README.md"))


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

    Checks ``choices`` membership (e.g. ``--backend serial``) and runs
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
