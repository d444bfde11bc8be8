"""In-memory spans around icnflow's layer boundaries, installed at run time.

Nothing under src/ is edited.  `Tracer.install()` swaps, in each layer's
module namespace, the names it calls in the layer below for timed wrappers,
and `Tracer.uninstall()` puts the originals back:

    cli   -> model, sim   icnflow.cli.cycle, icnflow.cli.run
    cli                   icnflow.cli.load_experiment, for set-up
    model -> model        icnflow.model.wmax
    model -> sharing      icnflow.model.sharing_function (returns a timed
                          share_* wrapper)
    sharing -> core       icnflow.sharing.rtt (a counter only: it runs
                          millions of times per cycle, so no spans)

With `layers=False` only the cli names are wrapped.  That is what the
end-to-end run uses to time each (point, strategy, source) unit; its cost is
two clock reads per unit, against units of milliseconds to seconds.

A span is [id, name, parent id, start, end, info]; times come from
time.perf_counter().
"""

from __future__ import annotations

import time

import icnflow.cli as cli
import icnflow.model as model
import icnflow.sharing as sharing

_clock = time.perf_counter


def _describe_cycle(args, stats):
    return {"strategy": args[1].token, "w_max": stats.w_max,
            "rounds": len(stats.rounds), "y_msgs_per_s": stats.y_msgs_per_s}


def _describe_run(args, res):
    return {"strategy": args[1].token,
            "sent": sum(res.per_face_sent),
            "delivered": res.delivered_msgs,
            "losses": res.losses,
            "inflight": sum(res.per_face_inflight),
            "trace_rows": len(res.window_trace or ())}


class Tracer:
    """Records spans while installed; spans stay in memory until written."""

    def __init__(self, layers: bool):
        self.layers = layers
        self.spans = []
        self.rtt_calls = [0]   # a cell, so the counting wrapper stays cheap
        self._stack = []
        self._saved = []

    def timed(self, name, fn, describe=None):
        """`fn` wrapped so that every call records one span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, stack[-1] if stack else None,
                   _clock(), None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = {"error": f"{type(exc).__name__}: {exc}"}
                raise
            finally:
                rec[4] = _clock()
                stack.pop()
            if describe is not None:
                rec[5] = describe(args, result)
            return result
        return wrapper

    def _patch(self, module, name, replacement):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def install(self):
        self._patch(cli, "cycle",
                    self.timed("model.cycle", cli.cycle, _describe_cycle))
        self._patch(cli, "run", self.timed("sim.run", cli.run, _describe_run))
        self._patch(cli, "load_experiment",
                    self.timed("cli.load_experiment", cli.load_experiment))
        if not self.layers:
            return
        self._patch(model, "wmax", self.timed("model.wmax", model.wmax))
        share_for = model.sharing_function
        self._patch(model, "sharing_function", lambda strategy: self.timed(
            f"sharing.share_{strategy.token}", share_for(strategy)))
        real_rtt, count = sharing.rtt, self.rtt_calls

        def counted_rtt(path, pending, msg_rate):
            count[0] += 1
            return real_rtt(path, pending, msg_rate)
        self._patch(sharing, "rtt", counted_rtt)

    def uninstall(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Self seconds of every span: its duration minus the part of it that
    its child spans cover."""
    children = {}
    for s in spans:
        if s[2] is not None:
            children.setdefault(s[2], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[3]
        for start, end in sorted(children.get(s[0], ())):
            start, end = max(start, reach), min(end, s[4])
            if end > start:
                covered += end - start
                reach = end
        out[s[0]] = (s[4] - s[3]) - covered
    return out


def to_json(spans, origin):
    """Spans as JSON-ready dicts, times in seconds from `origin`."""
    return [{"id": s[0], "name": s[1], "parent": s[2],
             "start": s[3] - origin, "end": s[4] - origin,
             **({"info": s[5]} if s[5] else {})} for s in spans]
