"""The figure registry: paper figures as declarative, runnable objects.

A :class:`Figure` bundles what the paper presents as one figure or table:
the :class:`~repro.exp.spec.ExperimentSpec` grids whose simulations feed
it, and a renderer that turns sweep results into the canonical text
artifact(s) under ``benchmarks/results/``.  Figures are registered with
:func:`register_figure` and executed with :func:`run_figure`, which runs
any missing grid points through a :class:`~repro.exp.runner.SweepRunner`
(everything lands in — and is later served from — the
:class:`~repro.exp.store.ResultStore`) and then renders.

Renderers read **only** from sweep results; they never simulate.  A
figure whose artifacts are fully cached therefore re-renders with zero
new simulations — that is the contract the benches and the
``python -m repro report`` CLI build on.  Figures without simulation
grids (trace analyses like Fig. 4, or pure models like Table 4) declare
no specs and compute deterministically inside the renderer.

Registering a figure is the extension point for new studies::

    @register_figure(
        "myfig",
        title="My study - effect of FOO on miss ratio",
        artifacts=("myfig_results",),
        specs={"main": ExperimentSpec(workloads="web_search", ...)},
    )
    def render_myfig(ctx):
        sweep = ctx.sweep("main")
        ctx.emit("myfig_results", format_table(...), headers=..., rows=...)
        return data_for_assertions
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.exp.backends import SweepBackend
from repro.exp.plugins import merge_plugins
from repro.exp.runner import SweepProgress, SweepResult, SweepRunner
from repro.exp.spec import ExperimentPoint, ExperimentSpec
from repro.exp.store import ResultStore
from repro.obs.spans import tracer

_REGISTRY: Dict[str, "Figure"] = {}


@dataclass(frozen=True)
class Artifact:
    """One rendered output file of a figure.

    ``text`` is the canonical plain-text rendering (written as
    ``<name>.txt``); ``headers``/``rows``, when present, are the same
    data in tabular form for the optional CSV rendering.
    """

    name: str
    text: str
    headers: Optional[Tuple[str, ...]] = None
    rows: Optional[Tuple[Tuple[str, ...], ...]] = None

    def to_csv(self) -> Optional[str]:
        """The artifact as CSV text, or None for prose-only artifacts."""
        if self.headers is None or self.rows is None:
            return None
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return out.getvalue()


@dataclass(frozen=True)
class Figure:
    """A registered paper figure/table: its grids plus its renderer."""

    name: str
    title: str
    artifacts: Tuple[str, ...]
    specs: Mapping[str, ExperimentSpec]
    render: Callable[["FigureContext"], Any]
    description: str = ""

    def points(self) -> Tuple[ExperimentPoint, ...]:
        """Every grid point this figure consumes, deduplicated, in order."""
        seen = set()
        out: List[ExperimentPoint] = []
        for spec in self.specs.values():
            for point in spec.points():
                if point not in seen:
                    seen.add(point)
                    out.append(point)
        return tuple(out)


class FigureContext:
    """What a renderer sees: the figure's sweep results, and an emit sink.

    ``ctx.sweep(name)`` returns the :class:`SweepResult` for the named
    spec; ``ctx.emit(artifact_name, text, headers=..., rows=...)``
    records one output artifact (the name must be declared in the
    figure's ``artifacts`` tuple).  The renderer's return value is
    surfaced as :attr:`FigureOutput.data` for callers (the benches'
    assertions) that need the underlying numbers, not the formatted text.
    """

    def __init__(self, figure: Figure, sweeps: Mapping[str, SweepResult]) -> None:
        self.figure = figure
        self._sweeps = dict(sweeps)
        self.artifacts: List[Artifact] = []

    def sweep(self, name: str) -> SweepResult:
        """The results of the figure's spec named ``name``."""
        if name not in self._sweeps:
            raise KeyError(
                f"figure {self.figure.name!r} has no spec {name!r}; "
                f"one of {tuple(self._sweeps)}"
            )
        return self._sweeps[name]

    def emit(
        self,
        name: str,
        text: str,
        headers: Optional[Sequence[str]] = None,
        rows: Optional[Sequence[Sequence[object]]] = None,
    ) -> None:
        """Record one artifact; ``name`` must be declared by the figure."""
        if name not in self.figure.artifacts:
            raise ValueError(
                f"figure {self.figure.name!r} does not declare artifact "
                f"{name!r}; declared: {self.figure.artifacts}"
            )
        if any(a.name == name for a in self.artifacts):
            raise ValueError(f"artifact {name!r} emitted twice")
        self.artifacts.append(
            Artifact(
                name=name,
                text=text,
                headers=None if headers is None else tuple(str(h) for h in headers),
                rows=None if rows is None else tuple(
                    tuple(str(c) for c in row) for row in rows
                ),
            )
        )


@dataclass(frozen=True)
class FigureOutput:
    """What :func:`run_figure` returns: artifacts, data, and sweep stats."""

    figure: Figure
    artifacts: Tuple[Artifact, ...]
    data: Any
    sweeps: Mapping[str, SweepResult] = field(default_factory=dict)

    @property
    def points(self) -> int:
        """Distinct grid points consumed (0 for analysis-only figures)."""
        return len(self.figure.points())

    @property
    def hits(self) -> int:
        """Points served from the result store."""
        return len({p for s in self.sweeps.values() for p in s.cached})

    @property
    def simulated(self) -> int:
        """Points that had to be simulated fresh."""
        return len({p for s in self.sweeps.values() for p in s.simulated})


def register_figure(
    name: str,
    *,
    title: str,
    artifacts: Sequence[str],
    specs: Optional[Mapping[str, ExperimentSpec]] = None,
) -> Callable[[Callable[[FigureContext], Any]], Callable[[FigureContext], Any]]:
    """Class the decorated renderer as the figure called ``name``.

    ``title`` is the one-line description shown by ``repro report --list``;
    ``artifacts`` declares the canonical output names (files under
    ``benchmarks/results/`` minus the extension) the renderer must emit;
    ``specs`` maps spec names to the grids the renderer reads.
    Duplicate figure names, and artifact names already claimed by another
    figure, are rejected at registration time.
    """
    artifact_names = tuple(artifacts)

    def decorate(render: Callable[[FigureContext], Any]):
        if name in _REGISTRY:
            raise ValueError(f"figure {name!r} is already registered")
        claimed = {
            artifact: other.name
            for other in _REGISTRY.values()
            for artifact in other.artifacts
        }
        for artifact in artifact_names:
            if artifact in claimed:
                raise ValueError(
                    f"artifact {artifact!r} is already claimed by figure "
                    f"{claimed[artifact]!r}"
                )
        _REGISTRY[name] = Figure(
            name=name,
            title=title,
            artifacts=artifact_names,
            specs=dict(specs or {}),
            render=render,
            description=(render.__doc__ or "").strip(),
        )
        return render

    return decorate


def figure_names() -> Tuple[str, ...]:
    """Registered figure names, in registration order."""
    return tuple(_REGISTRY)


def get_figure(name: str) -> Figure:
    """Look a figure up by name; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; one of {figure_names()}"
        ) from None


def iter_figures() -> Iterator[Figure]:
    """All registered figures, in registration order."""
    return iter(_REGISTRY.values())


def referenced_points() -> Tuple[ExperimentPoint, ...]:
    """Every grid point any registered figure consumes (for ``store gc``)."""
    seen = set()
    out: List[ExperimentPoint] = []
    for figure in iter_figures():
        for point in figure.points():
            if point not in seen:
                seen.add(point)
                out.append(point)
    return tuple(out)


def run_figure(
    name: str,
    *,
    runner: Optional[SweepRunner] = None,
    store: Optional[ResultStore] = None,
    jobs: int = 1,
    use_cache: bool = True,
    progress: Optional[Callable[[SweepProgress], None]] = None,
    backend: Optional[SweepBackend] = None,
    plugins: Sequence[str] = (),
) -> FigureOutput:
    """Execute one figure: sweep its grids, then render its artifacts.

    Missing points are simulated through ``runner`` (or a fresh
    :class:`SweepRunner` over ``store`` — defaulting to the shared
    on-disk store — with ``jobs`` workers, or any explicit execution
    ``backend``); everything already in the store is served from it.
    All of the figure's specs run as one combined sweep, so parallelism
    spans the whole figure and shared points simulate once.  A sharding
    backend is rejected: renderers read every grid point, so a partial
    sweep cannot render (shard a figure's grid with ``repro sweep
    --shard`` into shard stores, merge, then report from the merged
    store).  With tracing on, the render is one ``figure.render`` span.
    """
    figure = get_figure(name)
    if runner is None:
        runner = SweepRunner(
            store=store if store is not None else ResultStore(),
            jobs=jobs,
            use_cache=use_cache,
            progress=progress,
            backend=backend,
        )
    points = figure.points() if figure.specs else ()
    if points and len(runner.backend.select(points)) != len(points):
        raise ValueError(
            f"backend {runner.backend.name!r} runs only a subset of the "
            f"grid; figures need every point — sweep the shards into "
            f"stores, 'store merge' them, then report from the result"
        )
    # The combined sweep runs as a plain point iterable, so the figure
    # specs' own plugins ride along per-call — whichever runner is used —
    # for worker processes to bootstrap them.
    figure_plugins = merge_plugins(
        plugins, *(spec.plugins for spec in figure.specs.values())
    )
    combined = runner.run(points, plugins=figure_plugins) if figure.specs else None
    sweeps: Dict[str, SweepResult] = {}
    for spec_name, spec in figure.specs.items():
        points = spec.points()
        sweeps[spec_name] = SweepResult(
            points,
            {point: combined[point] for point in points},
            cached=[p for p in points if p in combined.cached],
            simulated=[p for p in points if p in combined.simulated],
        )
    context = FigureContext(figure, sweeps)
    with tracer().span("figure.render", figure=name):
        data = figure.render(context)
    missing = set(figure.artifacts) - {a.name for a in context.artifacts}
    if missing:
        raise RuntimeError(
            f"figure {name!r} declared but did not emit: {sorted(missing)}"
        )
    return FigureOutput(
        figure=figure,
        artifacts=tuple(context.artifacts),
        data=data,
        sweeps=sweeps,
    )


def write_artifacts(
    output: FigureOutput, directory: str, with_csv: bool = False
) -> List[str]:
    """Write a figure's artifacts as ``<name>.txt`` (and optional CSV).

    Returns the paths written.  The text file format is byte-compatible
    with the historical benches: artifact text plus one trailing newline.
    """
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for artifact in output.artifacts:
        path = os.path.join(directory, f"{artifact.name}.txt")
        with open(path, "w") as handle:
            handle.write(artifact.text + "\n")
        paths.append(path)
        if with_csv:
            csv_text = artifact.to_csv()
            if csv_text is not None:
                csv_path = os.path.join(directory, f"{artifact.name}.csv")
                with open(csv_path, "w") as handle:
                    handle.write(csv_text)
                paths.append(csv_path)
    return paths
