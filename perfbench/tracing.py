"""Layer spans for a single-process sweep, recorded from outside secsm.

The tracer replaces module attributes that the program looks up at call
time with wrappers that record one span per call: layer name, start,
end, parent span and a per-layer work figure. Spans stay in memory;
`summarize` turns them into self and inclusive time per layer. Only a
`--threads 1` sweep can be traced, because pool workers run in other
processes.

A hook whose module or attribute no longer exists is reported as absent
and contributes zero calls; it never stops the run.
"""

import importlib
import time
from contextlib import contextmanager

# (module, attribute, layer). The numerics entries are the names that
# beamformers and channel import from secsm.numerics; calls inside
# numerics itself are not split further.
HOOKS = (
    ("secsm.harness", "realize_channels", "channel.realize"),
    ("secsm.harness", "compute_beamformer", "beamformers.build"),
    ("secsm.harness", "mutual_info_mc", "metrics.mi"),
    ("secsm.harness", "build_codebook", "modulation.codebook"),
    ("secsm.metrics", "sjnr", "metrics.sjnr"),
    ("secsm.metrics", "_ber_counts", "metrics.ber"),
    ("secsm.metrics", "mi_inner_mean", "kernels.mi"),
    ("secsm.metrics", "build_codebook", "modulation.codebook"),
    ("secsm.beamformers", "canonical_phase", "numerics"),
    ("secsm.beamformers", "gen_max_eigvec", "numerics"),
    ("secsm.beamformers", "max_eigvec_hermitian", "numerics"),
    ("secsm.beamformers", "null_space_basis", "numerics"),
    ("secsm.beamformers", "whitening_matrix", "numerics"),
    ("secsm.channel", "max_eigvec_hermitian", "numerics"),
    ("secsm.channel", "null_space_basis", "numerics"),
)

# span fields
NAME, START, END, PARENT, WORK = range(5)


def _arg(args, kwargs, pos, key):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key)


def _mi_layer(args, kwargs):
    return f"metrics.mi_{_arg(args, kwargs, 1, 'side')}"


def _kernel_shape(args, kwargs):
    diffs = _arg(args, kwargs, 0, "diffs")
    noise = _arg(args, kwargs, 1, "noise")
    return (int(diffs.shape[0]), int(noise.shape[1]))


def _ber_trials(args, kwargs):
    return int(_arg(args, kwargs, 4, "n_trials"))


# layer -> function of the call's arguments giving the span's name
_NAMERS = {"metrics.mi": _mi_layer}
# layer -> function of the call's arguments giving its work figure
_WORK = {"kernels.mi": _kernel_shape, "metrics.ber": _ber_trials}


def _describe(fn, args, kwargs, default):
    """fn(args, kwargs), or default when a changed signature breaks it."""
    try:
        return fn(args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return default


class Tracer:
    """Records spans for the hooked layers while installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []

    def install(self):
        self.absent = []
        for module_name, attr, layer in self.hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def reset(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = self._open(name, None)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name, work):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, work])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer):
        namer = _NAMERS.get(layer)
        work = _WORK.get(layer)

        def traced(*args, **kwargs):
            name = _describe(namer, args, kwargs, layer) if namer else layer
            idx = self._open(name, _describe(work, args, kwargs, None)
                             if work else None)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.spans[idx][WORK] = type(exc).__name__
                raise
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced


def summarize(spans):
    """Per-layer {calls, incl_s, self_s, work} from a list of spans.

    A span's self time is its duration minus the durations of its
    direct children; self times of all spans add up to the roots'
    durations. work collects the per-call work figures.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    layers = {}
    for k, span in enumerate(spans):
        dur = span[END] - span[START]
        entry = layers.setdefault(span[NAME], {"calls": 0, "incl_s": 0.0,
                                               "self_s": 0.0, "work": []})
        entry["calls"] += 1
        if span[PARENT] < 0 or spans[span[PARENT]][NAME] != span[NAME]:
            entry["incl_s"] += dur
        entry["self_s"] += dur - child[k]
        if span[WORK] is not None:
            entry["work"].append(span[WORK])
    return layers
