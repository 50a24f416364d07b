"""Spans and counters around calls into each ncg layer.

The tracer wraps public functions and methods of the package from outside:
nothing under `src/` changes.  A function is replaced in every ncg module
namespace that binds it, because modules import one another's functions by
name (`chern` binds `set_flags`, `cli` binds `run_suite`, ...).

A span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1.  Spans are kept in memory and written out by the
caller when the run ends.  Very frequent calls (coefficient constructions,
`apply_kernel`, `NCForm.convolve`) are counted without a span.
"""

import importlib
import time
from collections import Counter

NCG_MODULES = ("coefficients", "linalg", "groupoid", "forms", "bisections",
               "modules", "kernels", "chern", "reference", "fixtures",
               "suites", "io", "cli")

# (module, attribute path, span name); each span also counts its calls
# under its name.  Several targets may share one span name.
SPANS = (
    ("cli", "_emit", "cli.emit"),
    ("io", "load_manifest", "io.load_manifest"),
    ("fixtures", "_build", "fixtures.build"),
    ("groupoid", "validate_groupoid", "groupoid.validate"),
    ("groupoid", "validate_space", "groupoid.validate"),
    ("groupoid", "validate_bundle", "groupoid.validate"),
    ("suites", "run_suite", "suites.run_suite"),
    ("reference", "trace_reference", "reference.oracle"),
    ("chern", "trace_e", "chern.trace"),
    ("chern", "heat_exponential", "chern.heat_exp"),
    ("kernels", "KernelSampler.__init__", "kernels.sampler_build"),
    ("kernels", "set_flags", "kernels.set_flags"),
    ("kernels", "omega_linearity_failures", "kernels.sweep"),
    ("kernels", "commutator_with_d", "kernels.commutator"),
    ("kernels", "kernel_mul", "kernels.kernel_mul"),
    ("kernels", "operator_to_kernel", "kernels.operator_to_kernel"),
    ("modules", "vector_rep", "modules.vector_rep"),
    ("modules", "ConnectionData.apply_du", "modules.apply_du"),
    ("forms", "AbReducer.__init__", "forms.reducer_build"),
    ("forms", "AbReducer.is_zero_in_ab", "forms.reduce"),
    ("linalg", "RowReducer.insert", "linalg.insert"),
    ("linalg", "RowReducer.express", "linalg.express"),
    ("linalg", "nullspace", "linalg.nullspace"),
)

COUNTS = (
    ("coefficients", "GaussRat.__init__", "coefficients.gaussrat_new"),
    ("coefficients", "PolyFormCoeff.__init__", "coefficients.polyform_new"),
    ("kernels", "apply_kernel", "kernels.apply"),
    ("forms", "NCForm.convolve", "forms.convolve"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._pullback_seen = set()

    # -- recording -----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; `after(args, result)` runs outside the span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_insert(self, args, useful):
        if useful:
            self.counts["linalg.insert_useful"] += 1

    def _after_reducer_build(self, args, _):
        self.counts["forms.reducer_rank"] += args[0].rank

    def _pullback(self, fn):
        """Chart pullbacks get a span and a repeat count; scalar pullback is
        the identity and is left unrecorded."""
        timed = self.span("coefficients.pullback", fn, after=self._after_pullback)

        def wrapper(model, coeff, label):
            if model.kind == "scalar":
                return fn(model, coeff, label)
            return timed(model, coeff, label)
        return wrapper

    def _after_pullback(self, args, _):
        key = (args[1], args[2])
        if key in self._pullback_seen:
            self.counts["coefficients.pullback_repeat"] += 1
        else:
            self._pullback_seen.add(key)

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every target in every ncg namespace that binds it."""
        modules = [importlib.import_module(f"ncg.{m}") for m in NCG_MODULES]
        after = {"linalg.insert": self._after_insert,
                 "forms.reducer_build": self._after_reducer_build}
        for module, path, name in SPANS:
            _replace(modules, module, path,
                     lambda fn, name=name: self.span(name, fn, after.get(name)))
        for module, path, name in COUNTS:
            _replace(modules, module, path,
                     lambda fn, name=name: self.counter(name, fn))
        _replace(modules, "coefficients", "CoefficientModel.pullback",
                 self._pullback)

    def command(self, fn):
        """The span around one whole `ncg` command."""
        return self.span("cli.command", fn)


def _replace(modules, module, path, make):
    owner = importlib.import_module(f"ncg.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapped = make(original)
    if outer:  # a method: the class is shared by every importer
        setattr(owner, attr, wrapped)
        return
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# Reading a trace
# ---------------------------------------------------------------------------

class Trace:
    """Busy time, self time and counts read off one run's spans."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = Counter(counts)
        self.child_time = [0.0] * len(spans)
        self.nested = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                self.child_time[parent] += end - start
            p = parent
            while p >= 0:
                if spans[p][0] == name:
                    self.nested[i] = True
                    break
                p = spans[p][3]

    def busy(self, name, within=None):
        """Inclusive time in `name`, not counting a span nested in another
        span of the same name; optionally only inside span `within`."""
        total = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n == name and not self.nested[i] and self._inside(i, within):
                total += end - start
        return total

    def self_time(self, name):
        return sum(end - start - self.child_time[i]
                   for i, (n, start, end, _) in enumerate(self.spans)
                   if n == name)

    def _inside(self, i, within):
        if within is None:
            return True
        p = self.spans[i][3]
        while p >= 0:
            if p == within:
                return True
            p = self.spans[p][3]
        return False

    def commands(self):
        """Indices of the `cli.command` spans, in order."""
        return [i for i, s in enumerate(self.spans) if s[0] == "cli.command"]

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]


# (metric, unit, how): "count" reads a counter or span count, "busy" the
# inclusive span time, "self" the span time minus child spans, "share" a
# busy time over the time of every command of the batch.
LAYER_METRICS = (
    ("coefficients.gaussrat_new", "count", "count", "coefficients.gaussrat_new"),
    ("coefficients.polyform_new", "count", "count", "coefficients.polyform_new"),
    ("coefficients.pullback_calls", "count", "count", "coefficients.pullback"),
    ("coefficients.pullback_s", "s", "busy", "coefficients.pullback"),
    ("coefficients.pullback_share", "share", "share", "coefficients.pullback"),
    ("linalg.insert_calls", "count", "count", "linalg.insert"),
    ("linalg.insert_s", "s", "busy", "linalg.insert"),
    ("linalg.express_calls", "count", "count", "linalg.express"),
    ("linalg.express_s", "s", "busy", "linalg.express"),
    ("linalg.nullspace_s", "s", "busy", "linalg.nullspace"),
    ("forms.reducer_builds", "count", "count", "forms.reducer_build"),
    ("forms.reducer_build_s", "s", "busy", "forms.reducer_build"),
    ("forms.reducer_build_share", "share", "share", "forms.reducer_build"),
    ("forms.reducer_rank", "count", "count", "forms.reducer_rank"),
    ("forms.convolve_calls", "count", "count", "forms.convolve"),
    ("forms.reduce_calls", "count", "count", "forms.reduce"),
    ("forms.reduce_s", "s", "busy", "forms.reduce"),
    ("kernels.set_flags_calls", "count", "count", "kernels.set_flags"),
    ("kernels.set_flags_s", "s", "busy", "kernels.set_flags"),
    ("kernels.sweep_calls", "count", "count", "kernels.sweep"),
    ("kernels.sweep_s", "s", "busy", "kernels.sweep"),
    ("kernels.sweep_share", "share", "share", "kernels.sweep"),
    ("kernels.commutator_s", "s", "busy", "kernels.commutator"),
    ("kernels.apply_calls", "count", "count", "kernels.apply"),
    ("kernels.kernel_mul_s", "s", "busy", "kernels.kernel_mul"),
    ("kernels.sampler_build_s", "s", "busy", "kernels.sampler_build"),
    ("kernels.operator_to_kernel_s", "s", "busy", "kernels.operator_to_kernel"),
    ("modules.vector_rep_calls", "count", "count", "modules.vector_rep"),
    ("modules.vector_rep_s", "s", "busy", "modules.vector_rep"),
    ("modules.apply_du_s", "s", "busy", "modules.apply_du"),
    ("chern.trace_s", "s", "busy", "chern.trace"),
    ("chern.heat_exp_s", "s", "busy", "chern.heat_exp"),
    ("reference.oracle_s", "s", "busy", "reference.oracle"),
    ("suites.self_s", "s", "self", "suites.run_suite"),
    ("cli.emit_s", "s", "busy", "cli.emit"),
    ("io.load_manifest_s", "s", "busy", "io.load_manifest"),
    ("fixtures.build_s", "s", "busy", "fixtures.build"),
    ("groupoid.validate_s", "s", "busy", "groupoid.validate"),
)

# The shares ROADMAP's baseline quotes, per suite x fixture command.
COMMAND_SHARES = (("sweep", "kernels.sweep"),
                  ("reducer_build", "forms.reducer_build"),
                  ("pullback", "coefficients.pullback"))


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(trace: Trace) -> dict:
    """Every per-layer metric of one traced batch, as {name: (value, unit)}."""
    total = sum(trace.duration(i) for i in trace.commands())
    out = {}
    for metric, unit, how, source in LAYER_METRICS:
        if how == "count":
            value = trace.counts[source]
        elif how == "busy":
            value = trace.busy(source)
        elif how == "self":
            value = trace.self_time(source)
        else:
            value = _ratio(trace.busy(source), total)
        out[metric] = (value, unit)
    counts = trace.counts
    out["coefficients.pullback_repeat_share"] = (_ratio(
        counts["coefficients.pullback_repeat"], counts["coefficients.pullback"]),
        "share")
    out["linalg.insert_useful_share"] = (_ratio(
        counts["linalg.insert_useful"], counts["linalg.insert"]), "share")
    return out


def command_shares(trace: Trace, command_ids) -> dict:
    """{command id: {share name: busy share of that command's time}}."""
    out = {}
    for command_id, i in zip(command_ids, trace.commands()):
        out[command_id] = {name: _ratio(trace.busy(source, within=i),
                                        trace.duration(i))
                           for name, source in COMMAND_SHARES}
    return out
