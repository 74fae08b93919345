"""Seeded structural fuzzing of the graph and ideal JSON read by the command line.

The files in tests/data are mutated with SplitMix64: values of the wrong
type, missing and extra keys, unknown vertex and edge ids, lists grown or
shrunk by one element (odd-length cycles among them) and emptied lists.
Each mutant goes through `cli.run` for `analyze`, `ideal-classify` and
`ideal-multiply`; it must end with a documented exit code (0, 2 or 4)
and never with a traceback.  The mutations leave field sizes alone.
"""

import copy
import json
import pathlib

from lpaideals.cli import run
from lpaideals.rng import SplitMix64

DATA = pathlib.Path(__file__).parent / "data"
# each ideal file with the graph it is written for
HOMES = {
    "loop_x_plus_1": "one_loop",
    "loop_quadratic": "one_loop",
    "loop_cubic_reducible": "one_loop",
    "zero_ideal": "one_loop",
    "petals_center_ideal": "petals3",
    "omega_loop_h": "omega_loop",
}
ODD_VALUES = (None, 0, -1, 2, 1.5, True, "", "zz", "inf", "1/0", [], {},
              ["zz"], [["v"]], {"zz": 1})
MUTANTS = 250


def _load(name):
    return json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, path + (index,))


def _odd_value(rng):
    return copy.deepcopy(rng.choice(ODD_VALUES))


def _mutate_once(rng, doc):
    paths = list(_paths(doc))
    path = rng.choice(paths)
    node = _at(doc, path)
    op = rng.below(4)
    if isinstance(node, str) and op:
        # an unknown id, or an id of the wrong kind from the same file
        strings = [s for s in (_at(doc, p) for p in paths) if isinstance(s, str)]
        return _replace(doc, path, "zz" if op == 1 else rng.choice(strings))
    if isinstance(node, (dict, list)) and node and op == 1:
        del node[rng.choice(sorted(node)) if isinstance(node, dict)
                 else rng.below(len(node))]
    elif isinstance(node, dict) and op == 2:
        node["zz"] = _odd_value(rng)
    elif isinstance(node, list) and op == 2:
        node.append(copy.deepcopy(rng.choice(node)) if node and rng.chance(0.5)
                    else _odd_value(rng))
    elif isinstance(node, (dict, list)) and op == 3:
        node.clear()
    else:
        return _replace(doc, path, _odd_value(rng))
    return doc


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _replace(doc, path, value):
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def _mutant(rng, doc):
    doc = copy.deepcopy(doc)
    for _ in range(1 + rng.below(3)):
        doc = _mutate_once(rng, doc)
    return doc


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_mutated_inputs_exit_with_documented_codes(tmp_path, capsys):
    rng = SplitMix64(0xF022)
    ideal_names = sorted(HOMES)
    seen = set()
    for n in range(MUTANTS):
        first = rng.choice(ideal_names)
        home = HOMES[first]
        second = rng.choice([i for i in ideal_names if HOMES[i] == home])
        docs = [_load(home), _load(first), _load(second)]
        # mutate at least one input, each with its own chance
        which = rng.below(3)
        docs = [_mutant(rng, d) if i == which or rng.chance(0.3) else d
                for i, d in enumerate(docs)]
        g, i1, i2 = (_write(tmp_path, f"{n}-{k}.json", d)
                     for k, d in enumerate(docs))
        for argv in (["analyze", "--graph", g],
                     ["ideal-classify", "--graph", g, "--ideal", i1],
                     ["ideal-multiply", "--graph", g, "--ideal", i1,
                      "--ideal", i2]):
            code = run(argv)
            err = capsys.readouterr().err
            assert code in (0, 2, 4) and "Traceback" not in err, \
                (argv[0], docs, code, err)
            seen.add(code)
    # the mutants reach past the parsers as well as into them
    assert {0, 2} <= seen
