"""Spans around avdoa's layers, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules
(plus the layer methods in ``METHODS``) with a wrapper that records a
span: name, start, end, parent span and the round it ran in.  Names a
module imported by value (``cli.read_feature_store``,
``dataset.encode_target``, ...) are patched too, so every call path is
seen.  Spans stay in memory until ``write``; ``uninstall`` restores the
originals.  Self time is a span's duration minus that of its children.
"""

import inspect
import json
import math
import os
import resource
import time
from collections import defaultdict

MODULES = ("audio", "visual", "geom", "dataset", "nn", "evaluation", "store", "cli")
METHODS = (
    ("nn", "Dense", "forward"), ("nn", "Dense", "backward"),
    ("nn", "BatchNorm", "forward"), ("nn", "BatchNorm", "backward"),
    ("nn", "Adam", "step"), ("dataset", "FrameDataset", "load"),
)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(path):
    return float(os.path.getsize(path))


def _swap_counts(args, result):
    frames, fdsp = list(args[0]), float(args[1])
    changed = sum(1 for a, b in zip(frames, result) if a.boxes != b.boxes)
    return {"changed": float(changed), "selected": float(math.ceil(fdsp * len(frames)))}


# Extra values taken when a call returns: name -> fn(args, result) -> {key: value}.
# "bytes", "changed" and "selected" are summed per round; "rss_hwm_mb" keeps its maximum.
HOOKS = {
    "audio.save_wav": lambda a, r: {"rss_hwm_mb": _rss_mb()},
    "audio.add_noise_at_snr": lambda a, r: {"rss_hwm_mb": _rss_mb()},
    "dataset.extract_features": lambda a, r: {"rss_hwm_mb": _rss_mb()},
    "dataset.FrameDataset.load": lambda a, r: {"rss_hwm_mb": _rss_mb()},
    "store.write_feature_store": lambda a, r: {"bytes": _file_bytes(a[0])},
    "store.read_feature_store": lambda a, r: {"bytes": _file_bytes(a[0])},
    "nn.save_checkpoint": lambda a, r: {"bytes": _file_bytes(a[1])},
    "visual.swap_detections": _swap_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, name, start, end, round]
        self.values = defaultdict(float)   # (round, name, key) -> value
        self.round = 0
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, skip_first_arg=False):
        hook = HOOKS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, self.round]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if hook is not None:
                for key, value in hook(args[1:] if skip_first_arg else args, result).items():
                    slot = (self.round, name, key)
                    if key == "rss_hwm_mb":
                        self.values[slot] = max(self.values[slot], value)
                    else:
                        self.values[slot] += value
            return result

        return traced

    def install(self, package):
        originals = {}
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                originals[fn] = self._wrap(f"{mod_name}.{attr}", fn)
        for mod_name in MODULES:   # module attributes, including by-value imports
            module = getattr(package, mod_name)
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, originals[value])
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            raw = vars(cls)[attr]
            name = f"{mod_name}.{cls_name}.{attr}"
            self._restore.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, True)))
            else:
                setattr(cls, attr, self._wrap(name, raw, True))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def per_round(self):
        """{round: {name: {"calls", "self_s", hook values...}}}."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[1] >= 0:
                child_time[span[1]] += span[4] - span[3]
        table = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for span in self.spans:
            row = table[span[5]][span[2]]
            row["calls"] += 1
            row["self_s"] += span[4] - span[3] - child_time[span[0]]
        for (rnd, name, key), value in self.values.items():
            table[rnd][name][key] = value
        for layers in table.values():
            for row in layers.values():
                if row.get("selected"):
                    row["changed_share"] = row["changed"] / row["selected"]
        return table

    def count_under(self, name, ancestor):
        """Calls of ``name`` per round that ran inside a span of ``ancestor``."""
        counts = defaultdict(int)
        for span in self.spans:
            if span[2] != name:
                continue
            parent = span[1]
            while parent >= 0:
                if self.spans[parent][2] == ancestor:    # ids are list positions
                    counts[span[5]] += 1
                    break
                parent = self.spans[parent][1]
        return counts

    def write(self, path, extra):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                **extra,
                "fields": ["id", "parent", "name", "start_s", "end_s", "round"],
                "spans": self.spans,
            }, fh, separators=(",", ":"))
            fh.write("\n")
