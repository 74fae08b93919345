"""Per-layer spans around the public functions of lpaideals, installed from outside.

A span wrapper is bound in place of the original function in every
lpaideals namespace that holds it (`ideals` imports `poly.factor` as
`factor_poly`; `classify` and `cli` import the `graphs` functions), so
nested calls made inside the package are seen.  A layer's self time is its
span duration minus the time covered by its child spans.  Counter wrappers
only count calls; they are used where a span per call would dominate the
cost of the call itself.

The five `classify` predicates are never rebound: `classify_algebra`
iterates the private `_PREDICATES` tuple and tests membership by identity,
so rebinding them would change which arguments each one receives.
"""

from __future__ import annotations

import collections
import sys
import time

SPANS = {
    "cli": ("run",),
    "classify": ("classify_algebra",),
    "graphs": ("graph_from_json", "enumerate_hereditary_saturated", "cycles",
               "condition_l", "condition_k", "maximal_tails", "strong_csp",
               "downward_directed", "hereditary_saturated_closure",
               "quotient_graph", "breaking_vertices", "admissible_pair"),
    "ideals": ("ideal_from_json", "canonicalize", "contains", "multiply",
               "intersect", "make_irredundant", "prime_power_decompose",
               "is_prime", "is_completely_irreducible",
               "enumerate_graded_primes", "factor_prime_powers",
               "factor_completely_irreducible", "Ideal.__init__"),
    "poly": ("factor", "is_irreducible_laurent", "poly_gcd"),
}
COUNTERS = {
    "graphs": ("is_hereditary",),
    "poly": ("poly_lcm", "divides", "Poly.__init__"),
}

ENUMERATE = "graphs.enumerate_hereditary_saturated"
# candidate-set tests made directly inside an enumeration span
CANDIDATE_TESTS = ("graphs.is_hereditary", "graphs.hereditary_saturated_closure")
FACTOR = "poly.factor"
FACTOR_PRIME_POWERS = "ideals.factor_prime_powers"
FACTORIZATIONS = (FACTOR_PRIME_POWERS, "ideals.factor_completely_irreducible")
VERIFIERS = ("ideals.multiply", "ideals.intersect", "ideals.make_irredundant")

_PROTECTED = ("all_ideals_graded", "zero_completely_irreducible",
              "every_proper_ideal_completely_irreducible",
              "irreducible_equals_completely_irreducible",
              "every_proper_ideal_product_of_comp_irred")


def _span_names():
    return [f"{m}.{n}" for m, names in SPANS.items() for n in names]


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for name in _span_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out += [(f"{m}.{n}.calls", "count") for m, names in COUNTERS.items() for n in names]
    out += [
        (f"{ENUMERATE}.subsets_scanned", "count"),
        (f"{ENUMERATE}.sets_found", "count"),
        (f"{ENUMERATE}.yield", "ratio"),
        ("graphs.cycles.found", "count"),
        ("ideals.verify_share", "ratio"),
        ("ideals.factor_calls_per_factorization", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    return out


class Tracer:
    """Span stack plus counters; install() binds the wrappers, uninstall() undoes it."""

    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.Counter()
        self.subsets_scanned = 0
        self.sets_found = 0
        self.cycles_found = 0
        self.factor_under_fpp = 0
        self.verify_s = 0.0
        self.factorization_s = 0.0
        self._stack = []
        self._active = collections.Counter()
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name):
        stack = self._stack
        self.calls[name] += 1
        if name in CANDIDATE_TESTS and stack and stack[-1][0] == ENUMERATE:
            self.subsets_scanned += 1
        if name == FACTOR and self._active[FACTOR_PRIME_POWERS]:
            self.factor_under_fpp += 1

    def _span(self, name, fn):
        stack, active, clock = self._stack, self._active, time.perf_counter

        def span(*args, **kwargs):
            self._enter(name)
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                active[name] -= 1
                self.self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                self._account(name, took)
            if name == ENUMERATE:
                self.sets_found += len(result)
            elif name == "graphs.cycles":
                self.cycles_found += len(result)
            return result

        return span

    def _account(self, name, took):
        active = self._active
        if name in VERIFIERS and not any(active[v] for v in VERIFIERS) \
                and any(active[f] for f in FACTORIZATIONS):
            self.verify_s += took
        elif name in FACTORIZATIONS and not any(active[f] for f in FACTORIZATIONS):
            self.factorization_s += took

    def _counter(self, name, fn):
        def count(*args, **kwargs):
            self._enter(name)
            return fn(*args, **kwargs)

        return count

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = [m for key, m in sys.modules.items()
                   if key == "lpaideals" or key.startswith("lpaideals.")]
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for short, names in table.items():
                module = sys.modules[f"lpaideals.{short}"]
                for attr in names:
                    self._bind(package, module, short, attr, make)

    def _bind(self, package, module, short, attr, make):
        name = f"{short}.{attr}"
        if "." in attr:  # a method: bind it on its class
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, make(name, original))
            self._restore.append((cls, method, original))
            return
        original = getattr(module, attr)
        if attr in _PROTECTED:
            raise ValueError(f"{name} must not be rebound")
        wrapper = make(name, original)
        for namespace in package:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    self._restore.append((namespace, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def reset_stack(self) -> None:
        """Drop spans left open by a query interrupted by the wall cap."""
        self._stack.clear()
        self._active.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict:
        """Per-layer metric values, each averaged over the traced passes."""
        values = {}
        for name in _span_names():
            values[f"{name}.calls"] = self.calls[name] / passes
            values[f"{name}.self_s"] = self.self_s[name] / passes
        for short, names in COUNTERS.items():
            for attr in names:
                values[f"{short}.{attr}.calls"] = self.calls[f"{short}.{attr}"] / passes
        values[f"{ENUMERATE}.subsets_scanned"] = self.subsets_scanned / passes
        values[f"{ENUMERATE}.sets_found"] = self.sets_found / passes
        values[f"{ENUMERATE}.yield"] = _ratio(self.sets_found, self.subsets_scanned)
        values["graphs.cycles.found"] = self.cycles_found / passes
        values["ideals.verify_share"] = _ratio(self.verify_s, self.factorization_s)
        values["ideals.factor_calls_per_factorization"] = _ratio(
            self.factor_under_fpp, self.calls[FACTOR_PRIME_POWERS])
        values["trace.overhead"] = overhead
        return values


def _ratio(num, den) -> float:
    return num / den if den else 0.0
