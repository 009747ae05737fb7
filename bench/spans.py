"""
Span tracing at the package's layer boundaries, from outside the package.

`Tracer.patch()` replaces each target function with a wrapper in every
``cherednik`` module that holds a reference to it (the CLI imports most
library functions by name), and `unpatch()` puts the originals back, so
untraced rounds run the unmodified code. A span is (name, start, end,
parent span, operation id); self time is a span's duration minus the
durations of its child spans. Inclusive time per name counts only the
outermost span of that name, so recursion is not counted twice.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute); "Class.method" patches a class attribute.
# Every function the CLI or the suites reach in the clifford module shares
# the span name "clifford", so clifford.s is the time spent in that layer.
TARGETS = [
    ("cli.main", "cli", "main"),
    ("modules.membership", "modules", "membership_detail"),
    ("modules.nu_vector", "modules", "nu_vector"),
    ("modules.L_decomposition", "modules", "L_decomposition"),
    ("modules.tensor_with_spin", "modules", "tensor_with_spin"),
    ("modules.dirac_cohomology", "modules", "dirac_cohomology"),
    ("modules.guaranteed_classes", "modules", "guaranteed_classes"),
    ("weights.evaluate", "weights", "CentralCharPoly.evaluate"),
    ("weights.weyl_dim_formal", "weights", "weyl_dim_formal"),
    ("polynomials.xi_to_w", "polynomials", "xi_to_w"),
    ("enveloping.r_matrix", "enveloping", "r_matrix"),
    ("enveloping.kappa_of", "enveloping", "kappa_of"),
    ("enveloping.jacobi_check", "enveloping", "jacobi_check"),
    ("enveloping.higher_jacobi_checks", "enveloping", "higher_jacobi_checks"),
    ("enveloping.h_linearity_check", "enveloping", "h_linearity_check"),
    ("clifford", "clifford", "gamma_e"),
    ("clifford", "clifford", "spin_action"),
    ("clifford", "clifford", "spin_weights"),
    ("clifford", "clifford", "gamma_rank_one"),
    ("clifford", "clifford", "gamma_lie_hom_check"),
    ("clifford", "clifford", "commutator_matches_action"),
    ("clifford", "clifford", "CliffordElement.__mul__"),
    ("clifford", "clifford", "CliffordElement.__add__"),
    ("rank_one.oracle_cohomology", "rank_one", "oracle_cohomology"),
    ("rank_one.dirac_matrix", "rank_one", "dirac_matrix"),
    ("verify.run_suites", "verify", "run_suites"),
]


def package_modules() -> list:
    """The imported modules of the cherednik package."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and name.split(".")[0] == "cherednik"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[list] = []     # [span index, child time] per open span
        self._open: dict[str, int] = defaultdict(int)
        self._restore: list = []
        self.reset_round()

    def reset_round(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.matrix_rows = 0

    def _wrap(self, name: str, fn):
        tracer = self
        spans, stack, is_open = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            is_open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                is_open[name] -= 1
                dur = end - start
                spans[idx] = (name, start, end, parent, tracer.op)
                tracer.calls[name] += 1
                tracer.self_time[name] += dur - frame[1]
                if not is_open[name]:
                    tracer.inclusive[name] += dur
                if stack:
                    stack[-1][1] += dur
            if name == "rank_one.dirac_matrix":
                tracer.matrix_rows += len(result)
            return result
        return wrapper

    def patch(self) -> None:
        modules = package_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        self.missing = []
        for name, mod_name, attr in TARGETS:
            mod = by_name.get(mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = vars(owner).get(member) if owner is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            if owner_name:
                self._restore.append((owner, member, orig))
                setattr(owner, member, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def unpatch(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
