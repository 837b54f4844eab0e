"""In-process tracing of the tubekit layers, from outside ``src/``.

``Tracer.install()`` replaces the public functions listed in ``LAYERS`` with
wrappers that time each call and count its work. A name that other modules
imported directly (``from .data_model import read_jsonl``) is patched in
every loaded tubekit module that holds it, so no call goes around the wrapper.

Each wrapped call pushes a frame on a per-thread stack, so the time of nested
wrapped calls is subtracted from the caller: every ``*_s`` figure is self
time. Calls of the coarse functions are also recorded as spans (name, start,
end, parent span, run id). The hot functions, called hundreds of thousands
of times, are only aggregated into call counts and seconds.

Run as a script, it traces one tubekit subcommand in this process:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json RUN_ID -- link --detections ...

and writes the spans and per-function totals to ``OUT.json``, even when the
subcommand exits non-zero.
"""

import json
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function, records spans). Hot functions are aggregated only.
LAYERS = (
    ("data_model", "read_jsonl", False),
    ("data_model", "write_jsonl", True),
    ("linking", "track_link", True),
    ("linking", "read_tubelets", True),
    ("linking", "write_tubelets", True),
    ("kernels", "iou_matrix", False),
    ("kernels", "paired_iou", False),
    ("refinement", "filter_static", True),
    ("refinement", "make_proposals", True),
    ("refinement", "read_proposals", True),
    ("refinement", "write_proposals", True),
    ("proposals", "score", False),
    ("proposals", "label_proposal", False),
    ("proposals", "tubelet_spatial_iou", False),
    ("postprocess", "fuse", True),
    ("postprocess", "soft_nms", True),
    ("postprocess", "proposals_to_instances", True),
    ("evaluation", "tubelet_recall", True),
    ("evaluation", "det_curve", True),
    ("evaluation", "align_instances", False),
    ("synthgen", "generate", True),
)


class _ThreadState:
    def __init__(self):
        self.stack = []  # [child seconds, span id] per open call
        self.stats = defaultdict(lambda: defaultdict(float))
        self.spans = []


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self._installed = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- recording ---------------------------------------------------------

    def _enter(self, st):
        parent = st.stack[-1][1] if st.stack else None
        frame = [0.0, next(self._ids)]
        st.stack.append(frame)
        return frame, parent, time.perf_counter()

    def _exit(self, st, name, frame, parent, t0, with_span):
        t1 = time.perf_counter()
        st.stack.pop()
        duration = t1 - t0
        if st.stack:
            st.stack[-1][0] += duration
        agg = st.stats[name]
        agg["calls"] += 1
        agg["s"] += duration - frame[0]
        if with_span:
            st.spans.append((frame[1], parent, name, t0, t1))
        return agg

    def count(self, name, key, value):
        self._state().stats[name][key] += value

    def timed(self, name, fn, *args, with_span=True, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        st = self._state()
        frame, parent, t0 = self._enter(st)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(st, name, frame, parent, t0, with_span)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, with_span, after):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame, parent, t0 = tracer._enter(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                agg = tracer._exit(st, name, frame, parent, t0, with_span)
            if after is not None:
                after(agg, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_read_jsonl(self, fn):
        """``read_jsonl`` is a generator: time each ``next``, not the call
        that creates it."""
        tracer = self
        name = "data_model.read_jsonl"

        def wrapper(path):
            gen = fn(path)
            tracer.count(name, "bytes", os.path.getsize(path))
            while True:
                st = tracer._state()
                frame, parent, t0 = tracer._enter(st)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    agg = tracer._exit(st, name, frame, parent, t0, False)
                agg["records"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_write_jsonl(self, fn):
        tracer = self
        name = "data_model.write_jsonl"

        def counted(records, agg):
            for rec in records:
                agg["records"] += 1
                yield rec

        def wrapper(records, path):
            agg = tracer._state().stats[name]
            tracer.timed(name, fn, counted(records, agg), path)
            agg["bytes"] += os.path.getsize(path)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every function in ``LAYERS`` and ``Box.__post_init__``."""
        import tubekit.cli  # noqa: F401  (loads every tubekit module)
        from tubekit import geometry

        modules = {n: m for n, m in sys.modules.items() if n.startswith("tubekit.")}
        for mod_name, fn_name, with_span in LAYERS:
            original = getattr(modules["tubekit." + mod_name], fn_name)
            name = f"{mod_name}.{fn_name}"
            if name == "data_model.read_jsonl":
                shared = self._wrap_read_jsonl(original)
            elif name == "data_model.write_jsonl":
                shared = self._wrap_write_jsonl(original)
            else:
                shared = self._wrap(name, original, with_span, _AFTER.get(name))
            for module in modules.values():
                if getattr(module, fn_name, None) is not original:
                    continue
                wrapper = shared
                if name == "proposals.tubelet_spatial_iou" and module.__name__ == "tubekit.postprocess":
                    # postprocess calls it only to test soft-NMS neighbours
                    wrapper = self._wrap(name, original, False, _count_neighbor_test)
                setattr(module, fn_name, wrapper)
                self._installed.append((module, fn_name, original))

        box_post_init = geometry.Box.__post_init__
        state = self._state

        def post_init(box):
            state().stats["geometry.Box"]["inits"] += 1
            box_post_init(box)

        geometry.Box.__post_init__ = post_init
        self._installed.append((geometry.Box, "__post_init__", box_post_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def totals(self):
        merged = defaultdict(lambda: defaultdict(float))
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, agg in st.stats.items():
                for key, value in agg.items():
                    merged[name][key] += value
        return {name: dict(agg) for name, agg in merged.items()}

    def spans(self):
        with self._lock:
            states = list(self._states)
        out = []
        for st in states:
            for span_id, parent, name, t0, t1 in st.spans:
                out.append(
                    {"id": span_id, "parent": parent, "name": name, "start": t0, "end": t1, "run": self.run_id}
                )
        out.sort(key=lambda s: s["start"])
        return out


def _count_neighbor_test(agg, args, kwargs, result):
    agg["neighbor_tests"] += 1


def _count_io(key_in, key_out):
    def after(agg, args, kwargs, result):
        agg[key_in] += len(args[0])
        agg[key_out] += len(result[0] if isinstance(result, tuple) else result)

    return after


def _count_cells(agg, args, kwargs, result):
    agg["cells"] += len(args[0]) * len(args[1])


def _count_rows(agg, args, kwargs, result):
    agg["rows"] += len(args[0])


def _count_out(agg, args, kwargs, result):
    agg["out"] += len(result)


_AFTER = {
    "linking.track_link": _count_io("in", "out"),
    "refinement.filter_static": _count_io("in", "out"),
    "refinement.make_proposals": _count_out,
    "kernels.iou_matrix": _count_cells,
    "kernels.paired_iou": _count_rows,
    "postprocess.soft_nms": _count_io("in", "out"),
    "postprocess.proposals_to_instances": _count_out,
}


def main(argv):
    out_path, run_id, sep, *cli_args = argv
    if sep != "--" or not cli_args:
        raise SystemExit("usage: tracer.py OUT.json RUN_ID -- SUBCOMMAND [ARGS...]")
    tracer = Tracer(run_id)
    tracer.install()
    from tubekit import cli

    started = time.perf_counter()
    try:
        tracer.timed("cli." + cli_args[0], cli.main, cli_args, standalone_mode=False)
    finally:
        wall = time.perf_counter() - started
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "wall_s": wall, "totals": tracer.totals(), "spans": tracer.spans()}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
