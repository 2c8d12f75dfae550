"""In-memory span tracing of sparsecox's public functions, from outside.

``Tracer.install`` replaces the public functions and methods listed in
``_targets`` by wrappers that record a span per call; ``uninstall`` puts the
originals back.  Nothing in the package changes, and an untraced process
never installs anything.

A span's parent is the span that was open when it started, so each span is
keyed by its path of names from the root (``("fit", "fit_bar",
"ccd_minimize", "probe")``).  The kernels run about 10^5 times per fit, so
spans are aggregated per path as they close rather than kept one by one:
calls, total seconds, self seconds (duration minus the time covered by child
spans) and a count read from the result where one is named (solver sweeps,
BAR outer iterations, screening rounds).
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.totals = {}  # path -> [calls, seconds, self seconds, result count]
        self._stack = [[(), 0.0, 0.0]]  # open spans: [path, start, child seconds]
        self._patches = []

    def span(self, name, fn, count=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        stack, totals, clock = self._stack, self.totals, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [stack[-1][0] + (name,), 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - frame[1]
                stack.pop()
                stack[-1][2] += seconds
                entry = totals.get(frame[0])
                if entry is None:
                    entry = totals[frame[0]] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - frame[2]
            if count is not None:
                entry[3] += count(result)
            return result

        return traced

    def install(self, sc):
        """Wrap the package's public functions wherever its callers look them up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owners, attr, name, count in _targets(sc):
            original = vars(owners[0])[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.span(name, original.__func__, count))
            else:
                wrapped = self.span(name, original, count)
            for owner in owners:
                self._patches.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the aggregates ---------------------------------------------

    def select(self, name, within=None, outermost=False):
        """Aggregates of spans called ``name``, optionally only those with an
        ancestor called ``within`` or those with no ancestor of their own name."""
        for path, entry in self.totals.items():
            if path[-1] != name:
                continue
            if within is not None and within not in path[:-1]:
                continue
            if outermost and name in path[:-1]:
                continue
            yield entry

    def calls(self, name, **kw):
        return sum(e[0] for e in self.select(name, **kw))

    def seconds(self, name, **kw):
        return sum((e[1] for e in self.select(name, **kw)), 0.0)

    def self_seconds(self, name, **kw):
        return sum((e[2] for e in self.select(name, **kw)), 0.0)

    def count(self, name, **kw):
        return sum(e[3] for e in self.select(name, **kw))

    def table(self):
        """Every path with its aggregates, for the results file."""
        return [{"path": "/".join(path), "calls": e[0], "seconds": e[1],
                 "self_seconds": e[2], "count": e[3]}
                for path, e in sorted(self.totals.items())]


def _targets(sc):
    """(owners, attribute, span name, result count) for every traced callable.

    A function is patched in each module whose callers look it up there at
    call time: ``fit_bar`` calls ``fit_ridge`` and ``ccd_minimize`` through
    ``sparsecox.bar``, ``sjs_coxbar`` calls ``sjs_screen`` and
    ``ccd_minimize`` through ``sparsecox.screening`` and imports ``fit_bar``
    from ``sparsecox.bar`` when it runs.
    """
    lps, dataset = sc.LinearPredictorState, sc.SurvivalDataset
    return [
        ((sc, sc.sim), "simulate", "simulate", None),
        ((sc, sc.data), "load_dataset", "load_dataset", None),
        ((dataset,), "__init__", "dataset_build", None),
        ((dataset,), "from_dense", "dataset_build", None),
        ((dataset,), "from_columns", "dataset_build", None),
        ((lps,), "__init__", "state_build", None),
        ((lps,), "loglik", "loglik", None),
        ((lps,), "coord_derivatives", "derivs", None),
        ((lps,), "full_gradient", "full_gradient", None),
        ((lps,), "probe_coord_update", "probe", None),
        ((lps,), "commit", "commit", None),
        ((lps,), "refresh", "refresh", None),
        ((sc.bar, sc.screening), "ccd_minimize", "ccd_minimize", lambda r: r.sweeps),
        ((sc, sc.bar), "fit_ridge", "fit_ridge", None),
        ((sc, sc.bar), "fit_bar", "fit_bar", lambda r: r.outer_iterations),
        ((sc, sc.screening), "sjs_screen", "sjs_screen", lambda r: r.iterations),
        ((sc, sc.screening), "sjs_coxbar", "sjs_coxbar", None),
    ]
