"""Span tracing of oqcsim's public layer functions, installed from outside.

The tracer replaces each traced function on every module that looks it up
at call time (``oqcsim.cli`` binds some squeezed and truthtable functions
at import, so those names are patched there too).  Spans are kept in
memory as ``[name, start, end, parent, job]`` and written out once, when
the run ends.  Work counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter

# (span name, defining module, attribute, extra modules that bound the name)
TRACED = (
    ("cli.main", "cli", "main", ()),
    ("cli.load_config", "cli", "load_config", ()),
    ("cli.write", "cli", "write_payload", ()),
    ("rds.propagate", "rds", "propagate", ()),
    ("rds.calibrate", "rds", "calibrate_thresholds", ()),
    ("squeezed.fock", "squeezed", "fock_distribution", ("cli",)),
    ("squeezed.closed_form", "squeezed", "closed_form_stats", ("cli",)),
    ("jones.gate_matrix", "jones", "gate_matrix", ()),
    ("jones.apply_network", "jones", "apply_network", ()),
    ("spin.sequence_unitary", "spin", "sequence_unitary", ()),
    ("spin.apply_sequence", "spin", "apply_sequence", ()),
    ("truthtable.oracle", "truthtable", "not_permutation", ("cli",)),
    ("truthtable.oracle", "truthtable", "cnot_permutation", ("cli",)),
    ("truthtable.oracle", "truthtable", "permutation_matrix", ("cli",)),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and work counts while installed on an oqcsim package."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.fock_dim = 0
        self._default_cutoff = None
        self._stack = []
        self._job = None
        self._seen_inputs = set()
        self._patches = []

    # ------------------------------------------------------------ recording

    def begin_job(self, job_id):
        """Start a new job scope; distinct propagation inputs are per job."""
        self._job = job_id
        self._seen_inputs = set()

    def _wrap(self, name, fn, after=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self._job])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_propagate(self, args, kwargs, traj):
        fields = _arg(args, kwargs, 0, "fields")
        grid = _arg(args, kwargs, 1, "grid")
        params = _arg(args, kwargs, 2, "params")
        step = _arg(args, kwargs, 3, "step")
        self.counts["rds.propagate_calls"] += 1
        self.counts["rds.rk4_steps"] += len(traj.z) - 1
        self.counts["rds.trajectory_bytes"] += traj.z.nbytes + traj.fields.nbytes
        key = (
            complex(fields.a1), complex(fields.a2), complex(fields.a3),
            grid.lengths.tobytes(), grid.signs.tobytes(), params, float(step),
        )
        if key not in self._seen_inputs:
            self._seen_inputs.add(key)
            self.counts["rds.propagate_distinct"] += 1

    def _after_fock(self, args, kwargs, _result):
        dim = _arg(args, kwargs, 1, "cutoff", self._default_cutoff) + 1
        self.counts["squeezed.fock_calls"] += 1
        self.counts["squeezed.fock_operator_bytes"] += 2 * dim * dim * 16
        self.fock_dim = max(self.fock_dim, dim)

    def _after_network(self, args, kwargs, _result):
        self.counts["jones.element_applications"] += len(_arg(args, kwargs, 1, "elements"))

    def _count_segments(self, args, kwargs, index):
        self.counts["spin.segments_applied"] += len(_arg(args, kwargs, index, "segments"))

    def _after_write(self, args, kwargs, _result):
        out_path = _arg(args, kwargs, 1, "out_path")
        if out_path is not None:
            self.counts["cli.write_bytes"] += os.path.getsize(out_path)

    # ------------------------------------------------------------ patching

    def install(self, package):
        """Wrap every function in TRACED on ``package`` (the oqcsim module)."""
        self._default_cutoff = package.squeezed.DEFAULT_CUTOFF
        cutoff_error = package.squeezed.CutoffError

        def count_cutoff(exc):
            if isinstance(exc, cutoff_error):
                self.counts["squeezed.cutoff_errors"] += 1

        hooks = {
            "rds.propagate": (self._after_propagate, None),
            "squeezed.fock": (self._after_fock, count_cutoff),
            "jones.apply_network": (self._after_network, None),
            "spin.sequence_unitary": (lambda a, k, r: self._count_segments(a, k, 0), None),
            "spin.apply_sequence": (lambda a, k, r: self._count_segments(a, k, 1), None),
            "cli.write": (self._after_write, None),
        }
        for name, module_name, attr, also in TRACED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            after, on_error = hooks.get(name, (None, None))
            wrapped = self._wrap(name, original, after, on_error)
            for holder in (module,) + tuple(getattr(package, m) for m in also):
                self._patches.append((holder, attr, getattr(holder, attr)))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches = []

    # ------------------------------------------------------------ results

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name):
        return sum(self.durations(name))

    def self_time(self, name):
        """Duration of ``name`` spans minus the time their child spans cover.

        The program is single threaded, so children of one span never
        overlap and their coverage is the sum of their durations.
        """
        child_time = Counter()
        for s in self.spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        return sum(
            s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans) if s[0] == name
        )

    def layer_metrics(self, passes):
        """Per-layer metrics, each time and count given per workload pass."""
        c = self.counts

        def per_pass(x):
            return x / passes

        propagate_s = self.total("rds.propagate")
        network_s = self.total("jones.apply_network")
        fock = self.durations("squeezed.fock")
        calls = c["rds.propagate_calls"]
        return {
            "rds.propagate_s": (per_pass(propagate_s), "s"),
            "rds.propagate_calls": (per_pass(calls), "count"),
            "rds.rk4_steps": (per_pass(c["rds.rk4_steps"]), "count"),
            "rds.rk4_step_us": (1e6 * propagate_s / c["rds.rk4_steps"] if c["rds.rk4_steps"] else 0.0, "us"),
            "rds.calibrate_s": (per_pass(self.total("rds.calibrate")), "s"),
            "rds.trajectory_bytes": (per_pass(c["rds.trajectory_bytes"]), "B"),
            "rds.propagate_distinct_ratio": (c["rds.propagate_distinct"] / calls if calls else 0.0, "ratio"),
            "squeezed.fock_s": (per_pass(sum(fock)), "s"),
            "squeezed.fock_calls": (per_pass(c["squeezed.fock_calls"]), "count"),
            "squeezed.fock_call_p50_s": (statistics.median(fock) if fock else 0.0, "s"),
            "squeezed.fock_dim": (self.fock_dim, "count"),
            "squeezed.fock_operator_bytes": (per_pass(c["squeezed.fock_operator_bytes"]), "B"),
            "squeezed.closed_form_s": (per_pass(self.total("squeezed.closed_form")), "s"),
            "squeezed.cutoff_errors": (per_pass(c["squeezed.cutoff_errors"]), "count"),
            "jones.gate_matrix_s": (per_pass(self.total("jones.gate_matrix")), "s"),
            "jones.apply_network_s": (per_pass(network_s), "s"),
            "jones.element_applications": (per_pass(c["jones.element_applications"]), "count"),
            "jones.element_us": (
                1e6 * network_s / c["jones.element_applications"] if c["jones.element_applications"] else 0.0,
                "us",
            ),
            "spin.sequence_unitary_s": (per_pass(self.total("spin.sequence_unitary")), "s"),
            "spin.segments_applied": (per_pass(c["spin.segments_applied"]), "count"),
            "spin.apply_sequence_s": (per_pass(self.total("spin.apply_sequence")), "s"),
            "truthtable.oracle_s": (per_pass(self.total("truthtable.oracle")), "s"),
            "cli.load_config_s": (per_pass(self.total("cli.load_config")), "s"),
            "cli.write_s": (per_pass(self.total("cli.write")), "s"),
            "cli.write_bytes": (per_pass(c["cli.write_bytes"]), "B"),
            "cli.self_s": (per_pass(self.self_time("cli.main")), "s"),
        }

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
