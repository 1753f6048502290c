"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of each `staircase` module, keeps one
span per call in memory (layer, name, start, end, parent) and derives each
layer's self time as span duration minus the time its direct child spans
cover. Counters are read off the objects the wrapped functions return, so
nothing inside `src/staircase` is touched.

Per-term hot paths (`Poly._combine`, `Order.key`, `Diagram.contains`) are
left alone on purpose: they run millions of times, and wrapping them would
measure the wrapper instead of the layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer = module of `staircase` -> ([function names], {class: [method names]})
LAYERS = {
    "cli": (["main"], {}),
    "problemfile": (["parse_problem", "parse_poly"], {}),
    "determinacy": ([
        "jet_ideal", "regular_sequence", "random_coord_change",
        "regseq_axis_certificate", "fibre_ideal", "flat_ci", "milnor_mu0",
        "determinacy_bound", "jet_flatness_equivalence",
        "diagram_determinacy_check", "jet_sweep",
        "dimension_semicontinuity_probe", "perturbation_test"], {}),
    "standard_basis": ([
        "standard_basis", "diagram_of_ideal", "mora_normal_form"], {}),
    "jet_oracle": ([
        "exponents_below", "truncated_diagram", "truncated_quotient_dim",
        "oracle_cross_check"], {"TruncationBasis": ["build"]}),
    "diagram": (["exponents_upto"], {"Diagram": [
        "from_exponents", "complement_upto", "hilbert_samuel",
        "quotient_dimension", "max_vertex_length", "power_of_maximal",
        "equal_upto"]}),
    "core": (["determinant"], {"Poly": ["apply_coord_change"]}),
    "demo": ([
        "presentation_rows", "truncated_series_generators",
        "unit_cleared_generators"], {}),
}

# Sums of these counters are kept per case and committed only when the case
# finishes, so that a deadline interrupt cannot make them depend on timing.
SUM_COUNTERS = [
    "standard_basis.mora_calls", "standard_basis.mora_steps",
    "standard_basis.mora_pool_added", "standard_basis.spairs",
    "standard_basis.spairs_coprime", "standard_basis.spairs_zero",
    "standard_basis.spairs_added", "jet_oracle.builds",
    "jet_oracle.window_monomials", "jet_oracle.pivots",
    "diagram.hilbert_calls", "determinacy.calls", "problemfile.calls",
]
MAX_COUNTERS = [
    "standard_basis.mora_steps_max", "standard_basis.basis_terms_max",
    "standard_basis.coeff_bits_max",
]


def _count_sbasis(counts, sb):
    coprime = sum(r.skipped_coprime for r in sb.trace)
    zero = sum(r.reduced_to_zero and not r.skipped_coprime for r in sb.trace)
    counts["standard_basis.spairs"] += len(sb.trace)
    counts["standard_basis.spairs_coprime"] += coprime
    counts["standard_basis.spairs_zero"] += zero
    counts["standard_basis.spairs_added"] += sum(
        r.added_index is not None for r in sb.trace)
    terms = max((len(b.terms) for b in sb.basis), default=0)
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for b in sb.basis for _, c in b.terms), default=0)
    _keep_max(counts, "standard_basis.basis_terms_max", terms)
    _keep_max(counts, "standard_basis.coeff_bits_max", bits)


def _count_mora(counts, result):
    steps = len(result[1].steps)
    counts["standard_basis.mora_calls"] += 1
    counts["standard_basis.mora_steps"] += steps
    counts["standard_basis.mora_pool_added"] += result[1].pool_added
    _keep_max(counts, "standard_basis.mora_steps_max", steps)


def _count_build(counts, basis):
    window = len(basis.monomials)
    counts["jet_oracle.builds"] += 1
    counts["jet_oracle.window_monomials"] += window
    counts["jet_oracle.pivots"] += window - basis.nonpivot_count()


def _keep_max(counts, key, value):
    if value > counts[key]:
        counts[key] = value


def _tally(key):
    def count(counts, _):
        counts[key] += 1
    return count


COUNTERS = {
    ("standard_basis", "standard_basis"): _count_sbasis,
    ("standard_basis", "mora_normal_form"): _count_mora,
    ("jet_oracle", "build"): _count_build,
    ("diagram", "hilbert_samuel"): _tally("diagram.hilbert_calls"),
    ("problemfile", "parse_problem"): _tally("problemfile.calls"),
}


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, name, start, end, parent]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.case_counts: dict[str, int] = defaultdict(int)

    def start_case(self):
        self.stack.clear()  # in case a deadline struck between two statements
        self.case_counts = defaultdict(int)

    def commit_case(self):
        for key in SUM_COUNTERS:
            self.counts[key] += self.case_counts[key]
        for key in MAX_COUNTERS:
            _keep_max(self.counts, key, self.case_counts[key])

    def wrap(self, layer, name, fn):
        spans, stack = self.spans, self.stack
        count = COUNTERS.get((layer, name))
        if layer == "determinacy":
            count = _tally("determinacy.calls")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([layer, name, clock(), None,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = clock()
                stack.pop()
            if count is not None:
                count(self.case_counts, result)
            return result

        return wrapper

    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        closed = [s if s[3] is not None else s[:3] + [s[2], s[4]]
                  for s in self.spans]  # a deadline can strike before `try`
        covered = [0.0] * len(closed)
        for _, _, start, end, parent in closed:
            if parent >= 0:
                covered[parent] += end - start
        return [(layer, name, end - start, end - start - covered[i])
                for i, (layer, name, start, end, _) in enumerate(closed)]


class Instrumentation:
    """Installs a recorder's wrappers into the loaded `staircase` modules.

    Modules import each other's functions by name (`cli` holds its own
    `standard_basis`, `determinacy` its own `diagram_of_ideal`), so every
    module attribute that is the original function is rebound, not only the
    defining one. The package's `standard_basis` attribute is the function,
    which shadows the submodule, so submodules are reached by import path.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "staircase" or key.startswith("staircase.")]
        try:
            for layer, (functions, classes) in LAYERS.items():
                module = importlib.import_module(f"staircase.{layer}")
                for name in functions:
                    original = getattr(module, name)
                    wrapped = self.recorder.wrap(layer, name, original)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._set(holder, attr, wrapped)
                for clsname, methods in classes.items():
                    cls = getattr(module, clsname)
                    for name in methods:
                        raw = cls.__dict__[name]
                        if isinstance(raw, classmethod):
                            wrapped = classmethod(
                                self.recorder.wrap(layer, name, raw.__func__))
                        else:
                            wrapped = self.recorder.wrap(layer, name, raw)
                        self._set(cls, name, wrapped)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.recorder

    def _set(self, holder, attr, value):
        self.saved.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def __exit__(self, *exc):
        while self.saved:
            holder, attr, original = self.saved.pop()
            setattr(holder, attr, original)
        return False


TIMES = [f"{layer}.self_s" for layer in LAYERS] + [
    "standard_basis.mora_self_s", "standard_basis.queue_self_s",
    "jet_oracle.build_self_s", "diagram.hilbert_s", "diagram.from_exponents_s",
]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer times of one traced pass, in seconds."""
    out = dict.fromkeys(TIMES, 0.0)
    for layer, name, duration, own in recorder.self_times():
        out[f"{layer}.self_s"] += own
        if layer == "standard_basis":
            key = "mora_self_s" if name == "mora_normal_form" else "queue_self_s"
            out[f"standard_basis.{key}"] += own
        elif name == "build":
            out["jet_oracle.build_self_s"] += own
        elif name == "hilbert_samuel":
            out["diagram.hilbert_s"] += duration
        elif name == "from_exponents":
            out["diagram.from_exponents_s"] += duration
    return out
