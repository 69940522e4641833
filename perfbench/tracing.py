"""Layer timings taken from outside the program.

A Tracer replaces module attributes with timing wrappers, at the name
each caller resolves (the heatinfer modules import each other's
functions by name, so `harness.fit_gmm` and `posterior.fit_gmm` are
different bindings). Every wrapper pushes a frame on one span stack, so
each layer gets a call count, a total (inclusive) time and a self time:
its total minus the time its traced callees took. The hot layers run
tens of thousands of times per operation, so they keep only those
aggregates; layers patched with keep_spans=True also keep every span.
"""

import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = {}  # name -> [calls, total_s, self_s]
        self.spans = []  # (name, start_s, end_s, parent name or None)
        self._stack = []  # open frames: [child_s, start_s, name]
        self._patches = []  # (owner, attribute, original)

    def wrap(self, fn, name, keep_spans=False, before=None, after=None):
        """Timing wrapper for fn, counted under layer `name`.

        before(*args, **kwargs) runs before the span opens and
        after(result, *args, **kwargs) once it is closed, so their cost
        lands in the caller's self time, not in this layer.
        """
        stats = self.layers.setdefault(name, [0, 0.0, 0.0])
        stack, clock, spans = self._stack, self.clock, self.spans

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0, clock(), name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_spans:
                    spans.append((name, frame[1], end, stack[-1][2] if stack else None))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attribute, name, keep_spans=False, before=None, after=None):
        """Replace owner.attribute with its traced wrapper until restore()."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, keep_spans, before, after))

    def restore(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def calls(self, name):
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def total(self, name):
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.layers.get(name, (0, 0.0, 0.0))[2]

    def mean(self, name):
        """Mean inclusive seconds per call; 0 for a layer never called."""
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0
