"""Spans around the public functions of ckkms, installed from outside the
package.

`Tracer.install` replaces every module-level binding of a traced function
in every loaded `ckkms` module, including the `from`-imported names such as
`states.exp_interval` or `tensorops.state_spec`, so that no call path keeps
the unwrapped function.  Each span records name, start, end, parent span and
job id in flat arrays that stay in memory until `write` is called.  Self time
is the span's duration minus the time its child spans cover; calls are
single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import array
import inspect
import json
import sys
from time import perf_counter

TRACED = {
    "intervals": ("exp_interval_point", "exp_interval", "log_interval_point"),
    "perron": ("pf_data", "in_lambda", "solve_beta"),
    "polys": ("refine_root", "count_roots", "divmod_exact"),
    "scalars": ("mul", "add", "refine", "make_power", "same_value"),
    "ckwords": ("multiply", "rewrite", "normalize", "enumerate_admissible"),
    "states": ("kms_check", "gauge_factor", "eval_state", "eval_monomial",
               "state_spec", "residual_bound"),
    "tensorops": ("verify_tensor_identity", "tensor_state_eval",
                  "kronecker_vector", "combined_frequencies"),
    "classify": ("detect_lambda", "tensor_type", "power_type_direct"),
}

# functions whose repeated arguments a memo could serve; the share of calls
# whose full (defaults applied) argument tuple was already seen is reported
REPEAT_SHARE = ("intervals.exp_interval_point", "perron.pf_data",
                "scalars.make_power")


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in traced_names():
        out += [f"{name}.calls", f"{name}.self_ms"]
        if name in REPEAT_SHARE:
            out.append(f"{name}.repeat_share")
    out.append("perron.pf_data.iterations")
    return out


def _hashable(value):
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value


class Tracer:
    def __init__(self):
        self.names = traced_names()
        self.name_id = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.job_id = array.array("l")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.repeats = {name: 0 for name in REPEAT_SHARE}
        self.seen = {name: set() for name in REPEAT_SHARE}
        self.pf_iterations = 0
        self.active = False  # spans are recorded only inside timed calls
        self.job = -1
        self._stack = []  # [span index, time covered by children]

    def install(self) -> None:
        """Wrap each traced function and rebind every name bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ckkms" or name.startswith("ckkms."))]
        for idx, full in enumerate(self.names):
            mod_name, fn_name = full.split(".")
            original = getattr(sys.modules[f"ckkms.{mod_name}"], fn_name)
            wrapper = self._wrap(idx, full, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, idx: int, full: str, fn):
        signature = inspect.signature(fn)
        seen = self.seen.get(full)
        is_pf = full == "perron.pf_data"
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if seen is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(_hashable(v) for v in bound.arguments.values())
                if key in seen:
                    tracer.repeats[full] += 1
                else:
                    seen.add(key)
            stack = tracer._stack
            span = len(tracer.start)
            tracer.name_id.append(idx)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.job_id.append(tracer.job)
            tracer.end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.end[span] = t1
                duration = t1 - t0
                tracer.calls[idx] += 1
                tracer.self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if is_pf:
                tracer.pf_iterations += result.iterations
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(self.names):
            calls = self.calls[idx]
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            out[f"{name}.self_ms"] = {"value": self.self_s[idx] * 1e3, "unit": "ms"}
            if name in REPEAT_SHARE:
                share = self.repeats[name] / calls if calls else 0.0
                out[f"{name}.repeat_share"] = {"value": share, "unit": "ratio"}
        out["perron.pf_data.iterations"] = {"value": self.pf_iterations,
                                            "unit": "count"}
        return out

    def write(self, path) -> None:
        """Spans as one JSON header line followed by the five columns as
        raw native-endian arrays, in the order the header lists them."""
        columns = [("name_id", self.name_id), ("start", self.start),
                   ("end", self.end), ("parent", self.parent),
                   ("job_id", self.job_id)]
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [[name, col.typecode, col.itemsize]
                              for name, col in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(fh)
