"""The benchmark's per-layer tracer still binds onto the package as it stands.

perfbench/tracing.py rebinds the public functions named in its SPANS and
COUNTERS tables, and methods such as Ideal.__init__ on their class.  A
refactor that renames or removes one of them breaks every traced benchmark
run; this test finds that in well under a second.
"""

import importlib
import importlib.util
import pathlib
import sys

from lpaideals import ideals
from lpaideals.gallery import one_loop
from lpaideals.graphs import Cycle
from lpaideals.poly import FieldSpec, poly

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    """(owner, attribute) of every name in SPANS and COUNTERS."""
    out = []
    for table in (tracing.SPANS, tracing.COUNTERS):
        for short, names in table.items():
            module = importlib.import_module(f"lpaideals.{short}")
            for attr in names:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    out.append((getattr(module, cls_name), method))
                else:
                    out.append((module, attr))
    return out


def _snapshot(owners):
    return {id(owner): dict(vars(owner)) for owner in owners}


def _factor_a_square():
    # called through the module, as the benchmark does, so the spans see it
    square = ideals.canonicalize(one_loop(), (), (),
                                 [(Cycle.build(("v",), ("e",)),
                                   poly(FieldSpec.prime_field(2), (1, 0, 1)))])
    assert ideals.factor_prime_powers(square) is not None


def test_every_name_resolves_and_uninstall_restores_it():
    tracing = _load_tracing()
    targets = _targets(tracing)
    for owner, attr in targets:
        assert callable(vars(owner).get(attr)), f"{owner!r} has no {attr}"

    _factor_a_square()  # imports what the call imports lazily
    owners = [m for key, m in sys.modules.items()
              if key == "lpaideals" or key.startswith("lpaideals.")]
    owners += [owner for owner, _ in targets if isinstance(owner, type)]
    before = _snapshot(owners)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in targets:
            assert vars(owner)[attr] is not before[id(owner)][attr], \
                f"{attr} was not rebound"
        _factor_a_square()
    finally:
        tracer.uninstall()
    after = _snapshot(owners)
    for owner in owners:
        old, new = before[id(owner)], after[id(owner)]
        assert old.keys() == new.keys()
        assert all(new[key] is old[key] for key in old), owner
    for name in ("ideals.canonicalize", "ideals.Ideal.__init__",
                 "ideals.factor_prime_powers", "poly.factor"):
        assert tracer.calls[name] >= 1, name
    assert tracer.factor_under_fpp >= 1
