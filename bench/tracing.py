"""Import-site tracing of the package's layer boundaries.

A traced name is replaced, in the module that looks it up, by a wrapper
that records a span; ``restore`` puts every original back. Nothing under
``src/`` changes. Spans are aggregated in memory per (phase, layer,
function): call count, total time and self time, where self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# (module the caller looks the name up in, name, layer the callee belongs to)
BOUNDARIES = (
    ("sltb.distributions", "sltb_log_normalizer_arrays", "distributions"),
    ("sltb.distributions", "sltb_logpdf_arrays", "distributions"),
    ("sltb.regression", "sltb_logpdf_arrays", "distributions"),
    ("sltb.bayes_hier_linear", "sltb_logpdf_arrays", "distributions"),
    ("sltb.bayes_hier_nonlinear", "sltb_logpdf_arrays", "distributions"),
    ("sltb.cli", "sltb_pdf", "distributions"),
    ("sltb.regression", "loglik_sltb", "regression"),
    ("sltb.simulation", "fit_mle", "regression"),
    ("sltb.simulation", "mse", "regression"),
    ("sltb.cli", "fit_mle", "regression"),
    ("sltb.cli", "residuals", "regression"),
    ("sltb.cli", "mse_report", "regression"),
    ("sltb.kernel", "numeric_hessian", "kernel"),
    ("sltb.simulation", "gen_dataset", "simulation"),
    ("sltb.simulation", "run_study", "simulation"),
    ("sltb.cli", "run_study", "simulation"),
    ("sltb.cli", "records_table", "simulation"),
    ("sltb.bayes_hier_linear", "run_chain", "bayes_hier_linear"),
    ("sltb.bayes_hier_linear", "hier_linear_loglik", "bayes_hier_linear"),
    ("sltb.bayes_hier_linear", "posterior_predictive_mse", "bayes_hier_linear"),
    ("sltb.cli", "build_hier_model", "bayes_hier_linear"),
    ("sltb.cli", "run_chain", "bayes_hier_linear"),
    ("sltb.cli", "posterior_predictive_mse", "bayes_hier_linear"),
    ("sltb.bayes_hier_nonlinear", "sltb_hier_sample", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "normal_hier_sample", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "initialize_chain", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "mh_update_psi_sltb", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "mh_update_lnphi_sltb", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "mh_update_psi_normal", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "gibbs_mu", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "gibbs_sigma2", "bayes_hier_nonlinear"),
    ("sltb.bayes_hier_nonlinear", "sample_inverse_gamma", "bayes_hier_nonlinear"),
    ("sltb.cli", "sltb_hier_sample", "bayes_hier_nonlinear"),
    ("sltb.cli", "normal_hier_sample", "bayes_hier_nonlinear"),
    ("sltb.cli", "discount_data_from_table", "bayes_hier_nonlinear"),
    ("sltb.cli", "read_csv", "data"),
    ("sltb.cli", "write_csv", "data"),
    ("sltb.cli", "main", "cli"),
)

LAYERS = ("distributions", "regression", "kernel", "simulation",
          "bayes_hier_linear", "bayes_hier_nonlinear", "data", "cli")

# functions whose row count is the size of their result
_ROW_COUNTED = ("sltb_logpdf_arrays", "sltb_log_normalizer_arrays")


class Stat:
    __slots__ = ("calls", "total", "self_time", "rows")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.rows = 0


class StatTable(dict):
    """(phase, layer, function) -> Stat."""

    def select(self, phases=None, layer=None, name=None):
        """Sum of the stats that match every given filter; ``name`` may be
        one function name or a tuple of them."""
        names = (name,) if isinstance(name, str) else name
        out = Stat()
        for (ph, ly, nm), st in self.items():
            if phases is not None and ph not in phases:
                continue
            if layer is not None and ly != layer:
                continue
            if names is not None and nm not in names:
                continue
            out.calls += st.calls
            out.total += st.total
            out.self_time += st.self_time
            out.rows += st.rows
        return out

    def copy(self):
        out = StatTable()
        for key, st in self.items():
            c = out[key] = Stat()
            c.calls, c.total, c.self_time, c.rows = (
                st.calls, st.total, st.self_time, st.rows)
        return out


class Tracer:
    """Span recorder; the workload names the phase its calls belong to."""

    def __init__(self):
        self.phase = "setup"
        self.stats = StatTable()
        self._children: list = []  # child-time accumulator per open span
        self._saved: list = []

    def install(self):
        for mod_name, name, layer in BOUNDARIES:
            module = importlib.import_module(mod_name)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, layer, name))

    def restore(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, fn, layer, name):
        counts_rows = name in _ROW_COUNTED
        children = self._children
        stats = self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = clock() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                key = (self.phase, layer, name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = Stat()
                st.calls += 1
                st.total += dt
                st.self_time += dt - child
                if counts_rows and out is not None:
                    st.rows += int(np.size(out))

        traced.__wrapped__ = fn
        return traced

    def select(self, phases=None, layer=None, name=None):
        return self.stats.select(phases, layer, name)
