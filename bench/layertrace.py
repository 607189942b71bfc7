"""Spans and counts around abelfourier's layers, recorded from outside it.

``Tracer.install`` wraps the public functions of each layer and rebinds the
wrapper in every ``abelfourier.*`` module that holds the function by name
(``cli``, ``estimator``, ``witnesses`` and ``uncertainty`` each hold their
own ``forward``), so calls from inside the library are seen too.  Hot, tiny
callees get count-only wrappers.  Spans stay in memory until ``close_pass``
turns one pass of them into per-layer totals.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter


def _layers():
    """(layer name, owner, attribute, span or count-only, extra count).

    An extra count is (key, function of the call's args and result)."""
    from abelfourier import cli, estimator, groups, norms, transform, uncertainty, witnesses

    def result_size(args, result):
        return result.spec.size

    def arg_size(args, result):
        return args[0].spec.size

    return [
        ("cli.main", cli, "main", True, None),
        ("groups.parse", groups.GroupSpec, "parse", False, None),
        ("groups.elements", groups.GroupSpec, "elements", False, None),
        ("groups.from_generators", groups.Subgroup, "from_generators", False, None),
        ("groups.all_subgroups", groups, "all_subgroups", True,
         ("subgroups", lambda args, result: len(result))),
        ("transform.read_csv", transform, "read_csv", True, ("rows", result_size)),
        ("transform.write_csv", transform, "write_csv", True, ("rows", arg_size)),
        ("transform.measured_function", transform.MeasuredFunction, "__post_init__", True, None),
        ("transform.dft_matrix", transform, "dft_matrix", False, None),
        ("transform.forward", transform, "forward", True, ("points", arg_size)),
        ("transform.inverse", transform, "inverse", True, None),
        ("transform.character_function", transform, "character_function", False, None),
        ("transform.delta", transform, "delta", False, None),
        ("norms.lp_norm", norms, "lp_norm", True, None),
        ("norms.classify", norms, "classify", False, None),
        ("estimator.structured_search", estimator, "structured_search", True, None),
        ("estimator.ratio", estimator, "ratio", False, None),
        ("estimator.ascent_estimate", estimator, "ascent_estimate", True,
         ("iterations", lambda args, result: result.iterations)),
        ("estimator.objective", estimator, "log_ratio_and_grad", True, None),
        *[(f"witnesses.{family}", witnesses, f"{family}_witness", True, None)
          for family in WITNESS_FAMILIES],
        ("uncertainty.violator", uncertainty, "weighted_up_violator", True, None),
        ("uncertainty.margin", uncertainty, "weighted_up_margin", True, None),
        ("uncertainty.margin", uncertainty, "unweighted_up_margin", True, None),
        ("uncertainty.renyi_entropy", uncertainty, "renyi_entropy", True, None),
        ("uncertainty.support", uncertainty, "support_product", True, None),
        ("uncertainty.support", uncertainty, "donoho_stark_check", True, None),
    ]


WITNESS_FAMILIES = ["arc_indicator", "subgroup_indicator", "full_orbit", "chirp",
                    "lacunary_compact", "lacunary_discrete", "clt_delta"]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer, _, _, span, extra in _layers():
        keys = [f"{layer}.calls"]
        keys += [f"{layer}.self_frac"] if span else []
        keys += [f"{layer}.{extra[0]}"] if extra else []
        names += [k for k in keys if k not in names]
    return names + ["estimator.nonconverged"]


class Tracer:
    def __init__(self):
        self.spans = []  # (layer, start, end, parent index, op id)
        self.counts = Counter()
        self.op_id = 0
        self._root = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, layer, fn, extra):
        local = self._local

        def wrapper(*args, **kwargs):
            spans = self.spans
            stack = local.__dict__.setdefault("stack", [])
            idx = len(spans)
            spans.append(None)
            if layer == "cli.main":
                parent, self._root = -1, idx
            else:  # a worker thread's first span hangs off the op's root span
                parent = stack[-1] if stack else self._root
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op_id)
                self._count(layer, extra, args, result)
        return wrapper

    def _count_wrapper(self, layer, fn):
        def wrapper(*args, **kwargs):
            self._count(layer, None, args, None)
            return fn(*args, **kwargs)
        return wrapper

    def _count(self, layer, extra, args, result):
        """Counts a call; its extra count only if it returned a result."""
        with self._lock:
            self.counts[f"{layer}.calls"] += 1
            if result is None:
                return
            if extra is not None:
                key, count = extra
                self.counts[f"{layer}.{key}"] += count(args, result)
            if layer == "estimator.ascent_estimate" and not result.converged:
                self.counts["estimator.nonconverged"] += 1

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "abelfourier" or name.startswith("abelfourier."))]
        for layer, owner, attr, span, extra in _layers():
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                fn = orig.__func__ if isinstance(orig, classmethod) else orig
                wrapped = self._span_wrapper(layer, fn, extra) if span else self._count_wrapper(layer, fn)
                setattr(owner, attr, classmethod(wrapped) if isinstance(orig, classmethod) else wrapped)
                self._saved.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._span_wrapper(layer, orig, extra) if span else self._count_wrapper(layer, orig)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, name, wrapped)
                        self._saved.append((module, name, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- per-pass totals -------------------------------------------------

    def close_pass(self):
        """Self time per layer, the traced op wall time, and the counts of
        the pass; clears the spans and counts for the next pass."""
        children = defaultdict(list)
        for idx, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        self_time = Counter()
        op_wall = 0.0
        for idx, (layer, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_time[layer] += (end - start) - covered
            if layer == "cli.main":
                op_wall += end - start
        counts = Counter(self.counts)
        last_spans = self.spans
        self.spans = []
        self.counts = Counter()
        self._root = -1
        return self_time, op_wall, counts, last_spans
