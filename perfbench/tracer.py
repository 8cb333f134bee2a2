"""Outside-in span tracer for live Python modules.

A wrapped call records one span: its name, start, end and the index of the
span that was open when it started. Spans nest strictly (one thread), so a
span's self time is its duration minus the durations of its direct
children. Spans stay in memory as four parallel lists until the run ends.

``Tracer.patch`` replaces a function or method on its owner and under every
attribute of the given modules that is bound to the same object, which
catches names imported with ``from module import name``. ``restore`` puts
every original back, in reverse order.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, span: bool = True, hook=None):
        """Return a wrapper of ``fn``.

        ``hook(args, kwargs)`` runs before the call and may return a function
        that receives the result after a normal return. With ``span=False``
        the wrapper only runs the hook (for cheap counters on hot methods).
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            done = hook(args, kwargs) if hook is not None else None
            if span:
                i = len(names)
                names.append(name)
                parents.append(stack[-1] if stack else -1)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if done is not None:
                done(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, modules=(), span: bool = True,
              hook=None):
        """Wrap ``owner.attr`` and rebind every alias of it in ``modules``."""
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, span, hook)
        self._rebind(owner, attr, wrapper, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original and not (module is owner and key == attr):
                    self._rebind(module, key, wrapper, original)
        return wrapper

    def _rebind(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the durations of direct child spans."""
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def count(self, names) -> int:
        names = set(names)
        return sum(1 for n in self.names if n in names)

    def inclusive(self, names) -> float:
        """Total duration of spans named in ``names``, not counting a span
        nested inside another span of the same set twice."""
        names = set(names)
        covered = [False] * len(self.names)   # an ancestor is in the set
        total = 0.0
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            inside = p >= 0 and (covered[p] or self.names[p] in names)
            covered[i] = inside
            if n in names and not inside:
                total += self.ends[i] - self.starts[i]
        return total

    def self_time(self, prefix: str) -> float:
        """Summed self time of spans whose name starts with ``prefix``."""
        return sum((t for n, t in zip(self.names, self.self_times())
                    if n.startswith(prefix)), 0.0)
