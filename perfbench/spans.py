"""In-memory span tracing for the benchmark's traced run.

The traced run replaces each layer's public functions with timing wrappers
at the place where their callers look them up (``ranger.hermitian_evd``,
``simlab.synthesize_waveform_mode`` and so on), so the package itself is
never edited.  Each call records one span: function index, start and end
in nanoseconds, the index of the enclosing span and the ordinal of the
trial it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# (layer, module that callers look the name up in, function name).  The
# cxmath kernels are called by ranger, the synthesizers and the channel
# draw by simlab, and range_subchannel by simlab.run_trial.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cxmath", "rangesim.ranger", "forward_backward"),
    ("cxmath", "rangesim.ranger", "hermitian_evd"),
    ("cxmath", "rangesim.ranger", "ls_rotation"),
    ("cxmath", "rangesim.ranger", "general_eigenvalues"),
    ("airmodel", "rangesim.simlab", "synthesize_model_mode"),
    ("airmodel", "rangesim.simlab", "synthesize_waveform_mode"),
    ("airmodel", "rangesim.simlab", "draw_channel"),
    ("ranger", "rangesim.simlab", "range_subchannel"),
    ("ranger", "rangesim.ranger", "freq_snapshots"),
    ("ranger", "rangesim.ranger", "tile_snapshots"),
    ("ranger", "rangesim.ranger", "sample_corr"),
    ("ranger", "rangesim.ranger", "estimate_num_codes"),
    ("ranger", "rangesim.ranger", "esprit_phases"),
    ("ranger", "rangesim.ranger", "map_cfo"),
    ("ranger", "rangesim.ranger", "map_timing"),
    ("ranger", "rangesim.ranger", "detect_codes"),
    ("simlab", "rangesim.simlab", "run_sweep"),
    ("simlab", "rangesim.simlab", "run_trial"),
    ("simlab", "rangesim.simlab", "draw_users"),
    ("simlab", "rangesim.simlab", "compute_metrics"),
)

LABELS: tuple[str, ...] = tuple(f"{layer}.{name}" for layer, _, name in TARGETS)
ROOT = "simlab.run_sweep"
TRIAL = "simlab.run_trial"


@dataclass
class Tracer:
    """Records spans and per-call observations while its wrappers are installed.

    ``observers`` maps a label to ``fn(args, result)``, called after each
    successful call of that function; ``failures`` counts calls that raised.
    """

    observers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)  # (label index, start ns, end ns, parent, trial)
    failures: dict = field(default_factory=dict)
    trial: int = -1
    _in_trial: bool = field(default=False, init=False)
    _stack: list = field(default_factory=list, init=False)
    _saved: list = field(default_factory=list, init=False)

    def _wrap(self, index: int, fn):
        label = LABELS[index]
        observe = self.observers.get(label)
        starts_trial = label == TRIAL
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if starts_trial:
                self.trial += 1
                self._in_trial = True
            trial = self.trial if self._in_trial else -1
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failures[label] = self.failures.get(label, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, trial)
                if starts_trial:
                    self._in_trial = False
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the labels that were missing.

        A target renamed by a refactor is skipped instead of crashing the
        run: its layer reports zero calls and its time counts as its
        caller's self time, or as untraced time under a sweep root.
        """
        missing = []
        for index, (_, module_name, name) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            if original is None:
                missing.append(LABELS[index])
                continue
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(index, original))
        return missing

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent and overlapping children count
    once, so the result never goes negative.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        out.append(end - start - covered_ns(children.get(i, ()), start, end))
    return out


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans) -> tuple[list[int], list[int]]:
    """Call counts and summed self time (ns) per label index."""
    calls = [0] * len(LABELS)
    self_ns = [0] * len(LABELS)
    for span, own in zip(spans, self_times_ns(spans)):
        calls[span[0]] += 1
        self_ns[span[0]] += own
    return calls, self_ns


def untraced_share(spans, wall_ns: int) -> float:
    """Share of ``wall_ns`` that no span below a sweep root covers.

    ``wall_ns`` is the summed wall time of the traced sweeps.  Their
    ``run_sweep`` root spans frame that time, so they do not count as
    coverage: a layer that loses its wrapper leaves its time here.
    """
    root = LABELS.index(ROOT)
    inner = [(s[1], s[2]) for s in spans if s[0] != root]
    if wall_ns <= 0:
        return 0.0
    return max(0, wall_ns - covered_ns(inner, 0, 1 << 62)) / wall_ns
