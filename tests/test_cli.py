"""End-to-end runs of the lpa command line against checked-in goldens."""

import json
import pathlib
import sys
import time

import pytest

from lpaideals import graphs as graphs_module
from lpaideals import ideals as ideals_module
from lpaideals import poly as poly_module
from lpaideals.cli import run

DATA = pathlib.Path(__file__).parent / "data"
GOLDENS = pathlib.Path(__file__).parent / "goldens"


def graph(name):
    return str(DATA / f"{name}.json")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGoldens:
    CASES = [
        ("analyze_petals.json",
         ("analyze", "--graph", graph("petals3"))),
        ("tails_double_loop_chain.json",
         ("tails", "--graph", graph("double_loop_chain"))),
        ("factor_petals_center.json",
         ("ideal-factor", "--mode", "comp-irred", "--graph", graph("petals3"),
          "--ideal", str(DATA / "petals_center_ideal.json"))),
        ("omega_fan.dot",
         ("export-dot", "--graph", graph("omega_fan"))),
        ("algebra_check_sink_fork.json",
         ("algebra-check", "--graph", graph("sink_fork"))),
    ]

    @pytest.mark.parametrize("golden,argv", CASES,
                             ids=[c[0] for c in CASES])
    def test_byte_exact(self, capsys, golden, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert out == (GOLDENS / golden).read_text(encoding="utf-8")

    def test_runs_are_byte_stable(self, capsys):
        argv = ("primes", "--graph", graph("petals3"))
        first = invoke(capsys, *argv)
        assert first == invoke(capsys, *argv)


class TestSubcommands:
    def test_analyze_negative_verdicts_carry_witnesses(self, capsys):
        data = run_json(capsys, "analyze", "--graph", graph("one_loop"))
        assert data["condition_L"] == {"holds": False, "witness": ["v", "e"]}
        assert data["condition_K"]["holds"] is False

    def test_analyze_dot(self, capsys):
        code, out, _ = invoke(capsys, "analyze", "--dot",
                              "--graph", graph("omega_loop"))
        assert code == 0
        assert out.startswith("digraph") and "(ω)" in out

    def test_hsets(self, capsys):
        data = run_json(capsys, "hsets", "--graph", graph("omega_fan"))
        assert data["count"] == len(data["sets"])
        by_h = {tuple(s["H"]): s["breaking"] for s in data["sets"]}
        assert by_h[("w1",)] == ["v"]
        assert by_h[("w1", "w2")] == []

    def test_primes(self, capsys):
        data = run_json(capsys, "primes", "--graph", graph("petals3"))
        assert data["count"] == 4
        assert [p["ideal"]["H"] for p in data["primes"]] \
            == [[], ["v0", "v1", "v2"], ["v0", "v1", "v3"],
                ["v0", "v2", "v3"]]
        assert all(p["case"] == 1 for p in data["primes"])

    @pytest.mark.parametrize("name", ["petals3", "omega_fan", "double_loop_chain",
                                      "sink_fork"])
    def test_primes_computes_one_verdict_per_prime(self, capsys, monkeypatch, name):
        # enumerate_graded_primes checks each prime, and the case printed is
        # read off the verdict the prime keeps
        computed = []
        original = ideals_module._is_prime

        def counted(ideal):
            computed.append(ideal)
            return original(ideal)

        monkeypatch.setattr(ideals_module, "_is_prime", counted)
        data = run_json(capsys, "primes", "--graph", graph(name))
        assert data["count"] == len(computed) == len(set(computed))
        assert all(p["case"] in (1, 2) for p in data["primes"])

    def test_ideal_classify(self, capsys):
        data = run_json(capsys, "ideal-classify", "--graph", graph("one_loop"),
                        "--ideal", str(DATA / "loop_quadratic.json"))
        assert data["graded"] is False and data["proper"] is True
        assert data["prime"] == {"holds": True, "case": 3}
        assert data["completely_irreducible"] == {"holds": True, "case": 2}

    def test_classify_improper_has_no_prime_row(self, capsys, tmp_path):
        whole = tmp_path / "whole.json"
        whole.write_text(json.dumps({"H": ["v"], "S": [], "parts": []}))
        data = run_json(capsys, "ideal-classify", "--graph", graph("one_loop"),
                        "--ideal", str(whole))
        assert data["proper"] is False
        assert "prime" not in data and "completely_irreducible" not in data

    def test_multiply_output_round_trips(self, capsys, tmp_path):
        p1 = str(DATA / "loop_x_plus_1.json")
        code, out, _ = invoke(capsys, "ideal-multiply",
                              "--graph", graph("one_loop"),
                              "--ideal", p1, "--ideal", p1)
        assert code == 0
        product = json.loads(out)
        assert product["parts"][0]["poly"] == [1, 0, 1]  # (x+1)^2 over GF(2)
        back = tmp_path / "square.json"
        back.write_text(out)
        data = run_json(capsys, "ideal-classify", "--graph", graph("one_loop"),
                        "--ideal", str(back))
        assert data["completely_irreducible"]["holds"] is True

    def test_intersect_differs_from_product(self, capsys):
        p1 = str(DATA / "loop_x_plus_1.json")
        code, out, _ = invoke(capsys, "ideal-intersect",
                              "--graph", graph("one_loop"),
                              "--ideal", p1, "--ideal", p1)
        assert code == 0
        assert json.loads(out)["parts"][0]["poly"] == [1, 1]

    def test_field_flag_reinterprets_literals(self, capsys, tmp_path):
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(
            {"H": [], "S": [], "parts": [{"cycle": ["v", "e"],
                                          "poly": [1, 2, 1]}]}))
        data = run_json(capsys, "ideal-classify", "--graph", graph("one_loop"),
                        "--field", "GF(2)", "--ideal", str(bare))
        # over GF(2) the middle coefficient vanishes: x^2+1 = (x+1)^2
        assert data["ideal"]["parts"][0]["poly"] == [1, 0, 1]
        assert data["completely_irreducible"]["holds"] is True

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in DATA.glob("*.json")
        if "vertices" in json.loads(p.read_text(encoding="utf-8"))))
    def test_every_zero_ideal_factors_into_prime_powers(self, capsys, name):
        data = run_json(capsys, "ideal-factor", "--mode", "prime-powers",
                        "--graph", graph(name),
                        "--ideal", str(DATA / "zero_ideal.json"))
        assert data["factorable"] is True and data["report"]["factors"], name

    def test_factor_not_factorable(self, capsys):
        data = run_json(capsys, "ideal-factor", "--mode", "comp-irred",
                        "--graph", graph("one_loop"),
                        "--ideal", str(DATA / "zero_ideal.json"))
        assert data == {"factorable": False, "mode": "comp-irred"}

    def test_export_dot_quotient_marks_part_cycles(self, capsys):
        code, out, _ = invoke(capsys, "export-dot",
                              "--graph", graph("omega_loop"),
                              "--ideal", str(DATA / "omega_loop_h.json"))
        assert code == 0
        assert "digraph \"quotient\"" in out
        assert "u'" in out and "\"h\"" not in out

    def test_pretty_printing(self, capsys):
        compact = invoke(capsys, "tails", "--graph", graph("plain_chain"))[1]
        pretty = invoke(capsys, "tails", "--graph", graph("plain_chain"),
                        "--pretty")[1]
        assert json.loads(compact) == json.loads(pretty)
        assert "\n  " in pretty and "\n  " not in compact

    def test_parser_reuse_keeps_calls_apart(self, capsys):
        # the parser is built once per process; appended --ideal lists and
        # defaults must not carry over from one call to the next
        argv = ("ideal-multiply", "--graph", graph("one_loop"),
                "--ideal", str(DATA / "loop_x_plus_1.json"),
                "--ideal", str(DATA / "loop_quadratic.json"))
        first = invoke(capsys, *argv)
        assert first[0] == 0, first[2]
        assert invoke(capsys, "ideal-multiply", "--graph", graph("one_loop"),
                      "--no-such-flag")[0] == 2
        assert invoke(capsys, *argv) == first


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, out, err = invoke(capsys, "analyze", "--graph", "no_such.json")
        assert code == 2 and not out and "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert invoke(capsys, "analyze", "--graph", str(bad))[0] == 2

    def test_json_is_read_as_utf8_text(self, capsys, tmp_path):
        doc = '{"vertices": ["a"],\n "edges": [\n  {"id": "e" "src": "a"}]}'
        # json.loads would take UTF-16 bytes; a graph file must be UTF-8
        wide = tmp_path / "wide.json"
        wide.write_bytes('{"vertices": ["a"], "edges": []}'.encode("utf-16"))
        code, out, err = invoke(capsys, "analyze", "--graph", str(wide))
        assert code == 2 and not out and "'utf-8' codec can't decode" in err
        # "\r\n" and a lone "\r" read as "\n": errors name the same place
        for newline in ("\n", "\r\n", "\r"):
            path = tmp_path / "lines.json"
            path.write_bytes(doc.replace("\n", newline).encode())
            code, out, err = invoke(capsys, "analyze", "--graph", str(path))
            assert (code, out, err) == (
                2, "", "error: Expecting ',' delimiter: line 3 column 14 (char 45)\n")

    @pytest.mark.parametrize("operand", ["graph", "ideal"])
    def test_deeply_nested_json(self, capsys, tmp_path, operand):
        # the JSON parser recurses once per bracket
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        files = {"graph": graph("one_loop"), "ideal": str(DATA / "zero_ideal.json"),
                 operand: str(deep)}
        code, out, err = invoke(capsys, "ideal-classify", "--graph", files["graph"],
                                "--ideal", files["ideal"])
        assert code == 2 and not out and "deep.json" in err

    def test_invalid_field(self, capsys):
        # the characteristic must be ASCII digits, as a GF(p) scalar must be;
        # the zero ideal has no part, so only the label can be refused
        def field_code(label):
            return invoke(capsys, "ideal-classify", "--graph", graph("one_loop"),
                          "--field", label,
                          "--ideal", str(DATA / "zero_ideal.json"))[0]

        assert field_code("GF(7)") == 0
        for label in ("GF(4)", "GF(1_000_003)", "GF( 7 )", "GF(+7)",
                      "GF(\uff17)"):
            assert field_code(label) == 2, label

    @pytest.mark.parametrize("mult", ["1e400", "Infinity"])
    def test_float_multiplicity_rejected(self, capsys, tmp_path, mult):
        # JSON reads both as a float infinity; only "inf" is an infinite bundle
        bad = tmp_path / "graph.json"
        bad.write_text('{"vertices": ["u", "v"], "edges": '
                       '[{"id": "e", "src": "u", "dst": "v", "mult": %s}]}' % mult)
        code, out, err = invoke(capsys, "analyze", "--graph", str(bad))
        assert code == 2 and not out and "edge 'e' has bad multiplicity" in err

    @pytest.mark.parametrize("command,shift", [("ideal-multiply", 0),
                                               ("ideal-intersect", 1)])
    def test_answer_past_the_digit_limit(self, capsys, tmp_path, command, shift):
        # inputs of 2,201 digits are read; the product (x + a)(x + b), which
        # is also the lcm of coprime parts, has a 4,401-digit coefficient
        files = []
        for i, c in enumerate((10**2200, 10**2200 + shift)):
            files += ["--ideal", str(tmp_path / f"{i}.json")]
            (tmp_path / f"{i}.json").write_text(json.dumps(
                {"field": "Q", "parts": [{"cycle": ["v", "e"], "poly": [c, 1]}]}))
        code, out, err = invoke(capsys, command, "--graph", graph("one_loop"), *files)
        assert code == 4 and not out
        assert f"{sys.get_int_max_str_digits()} digits" in err

    def test_rational_answer_past_the_digit_limit(self, capsys, tmp_path):
        # (x + a/3)(x + a/7) for a = 10^2200: the constant term a^2/21 has a
        # 4,401-digit numerator, refused while the answer is formatted
        files = []
        for i, d in enumerate((3, 7)):
            files += ["--ideal", str(tmp_path / f"{i}.json")]
            (tmp_path / f"{i}.json").write_text(json.dumps(
                {"field": "Q",
                 "parts": [{"cycle": ["v", "e"], "poly": [f"{10**2200}/{d}", 1]}]}))
        code, out, err = invoke(capsys, "ideal-multiply", "--graph",
                                graph("one_loop"), *files)
        assert code == 4 and not out
        assert f"{sys.get_int_max_str_digits()} digits" in err

    def test_field_conflict(self, capsys):
        code = invoke(capsys, "ideal-classify", "--graph", graph("one_loop"),
                      "--field", "Q",
                      "--ideal", str(DATA / "loop_x_plus_1.json"))[0]
        assert code == 2

    def test_single_operand_rejected(self, capsys):
        code = invoke(capsys, "ideal-multiply", "--graph", graph("one_loop"),
                      "--ideal", str(DATA / "loop_x_plus_1.json"))[0]
        assert code == 2

    def test_exponent_coefficient_rejected(self, capsys, tmp_path):
        # parsed as a Fraction, "1e999999999" would build a billion-digit
        # integer; a coefficient string must have the form "a" or "a/b"
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"field": "Q", "parts": [
            {"cycle": ["v", "e"], "poly": ["1e99999", 1]}]}))
        code, out, err = invoke(capsys, "ideal-classify", "--graph",
                                graph("one_loop"), "--ideal", str(ideal))
        assert code == 2 and not out and '"a/b" string' in err

    @pytest.mark.parametrize("literal", ["1_000", " 5 ", "\uff11\uff12"],
                             ids=["underscore", "spaces", "fullwidth_digits"])
    def test_gf_coefficient_string_rejected(self, capsys, tmp_path, literal):
        # int() takes these; over GF(p), as over Q, a string must be digits
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"field": "GF(3)", "parts": [
            {"cycle": ["v", "e"], "poly": [literal, 1]}]}))
        code, out, err = invoke(capsys, "ideal-classify", "--graph",
                                graph("one_loop"), "--ideal", str(ideal))
        assert code == 2 and not out and '"a" string' in err

    def test_operands_that_are_not_prime_powers(self, capsys):
        # x^3 + 1 = (x + 1)(x^2 + x + 1) over GF(2) is no prime power
        for command, coeffs in (("ideal-multiply", [1, 1, 0, 1, 1]),
                                ("ideal-intersect", [1, 0, 0, 1])):
            data = run_json(capsys, command, "--graph", graph("one_loop"),
                            "--ideal", str(DATA / "loop_cubic_reducible.json"),
                            "--ideal", str(DATA / "loop_x_plus_1.json"))
            assert [p["poly"] for p in data["parts"]] == [coeffs], command

    def test_export_dot_of_the_whole_ideal(self, capsys, tmp_path):
        whole = tmp_path / "whole.json"
        whole.write_text(json.dumps({"H": ["h", "u"], "S": [], "parts": []}))
        code, out, err = invoke(capsys, "export-dot",
                                "--graph", graph("omega_loop"),
                                "--ideal", str(whole))
        assert code == 2 and out == ""
        assert "the quotient by every vertex has no vertices" in err

    def test_enumeration_bound(self, capsys, monkeypatch):
        # petals3 has 9 hereditary saturated sets, omega_fan 5 sets, 6 pairs
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 8)
        code, _, err = invoke(capsys, "hsets", "--graph", graph("petals3"))
        assert code == 4 and "error:" in err and "lattice cap 8" in err
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 5)
        assert invoke(capsys, "hsets", "--graph", graph("omega_fan"))[0] == 0
        # algebra-check walks no lattice, so the cap does not bind it
        data = run_json(capsys, "algebra-check", "--graph", graph("omega_fan"))
        chain = data["predicates"][2]
        assert chain["witness"]["pairs"] == [{"H": ["w1"], "S": []},
                                             {"H": ["w2"], "S": []}]

    def test_classify_past_the_modular_factor_cap_exits_4(self, capsys, monkeypatch,
                                                          tmp_path):
        # the square of the Swinnerton-Dyer polynomial of sqrt(2), sqrt(3),
        # which splits into four factors modulo every prime: is_prime and
        # the decomposition behind complete irreducibility both factor it,
        # so either one stops at the cap with this message
        sd = poly_module.poly(poly_module.FieldSpec.rationals(),
                              (576, 0, -960, 0, 352, 0, -40, 0, 1))
        ideal = tmp_path / "square.json"
        ideal.write_text(json.dumps({
            "H": [], "S": [], "field": "Q",
            "parts": [{"cycle": ["v", "e"], "poly": (sd ** 2).to_json()}]}))
        monkeypatch.setattr(poly_module, "MODULAR_FACTOR_CAP", 3)
        code, out, err = invoke(capsys, "ideal-classify", "--graph",
                                graph("one_loop"), "--ideal", str(ideal))
        assert (code, out) == (4, "")
        assert err == ("error: degree 8 splits into 4 factors modulo 7, more "
                       "than the modular factor cap 3\n")

    def test_hsets_of_seventeen_sinks_exits_4(self, capsys, tmp_path):
        sinks = tmp_path / "sinks.json"
        sinks.write_text(json.dumps({
            "vertices": [f"s{i:02d}" for i in range(17)], "edges": []}))
        code, out, err = invoke(capsys, "hsets", "--graph", str(sinks))
        assert code == 4 and out == ""
        assert "more hereditary saturated sets than the lattice cap 65536" in err

    def test_primes_and_factors_past_the_lattice_cap(self, capsys, tmp_path):
        # 17 isolated sinks have 2^17 sets but only 17 maximal tails
        sinks = tmp_path / "sinks.json"
        sinks.write_text(json.dumps({
            "vertices": [f"s{i:02d}" for i in range(17)], "edges": []}))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"H": []}))
        assert run_json(capsys, "primes", "--graph", str(sinks))["count"] == 17
        data = run_json(capsys, "ideal-factor", "--graph", str(sinks),
                        "--ideal", str(zero))
        assert len(data["report"]["factors"]) == 17
        data = run_json(capsys, "algebra-check", "--graph", str(sinks))
        chain = data["predicates"][2]
        assert chain["predicate"] == "every_proper_ideal_completely_irreducible"
        assert not chain["verdict"]
        assert chain["witness"]["pairs"] == [{"H": ["s00"], "S": []},
                                             {"H": ["s01"], "S": []}]

    @staticmethod
    def _ring_and_chain(tmp_path):
        ring, chain = tmp_path / "ring.json", tmp_path / "chain.json"
        ring.write_text(json.dumps({
            "vertices": [f"v{i:02d}" for i in range(40)],
            "edges": [{"id": f"e{i:02d}", "src": f"v{i:02d}",
                       "dst": f"v{(i + 1) % 40:02d}"} for i in range(40)]}))
        chain.write_text(json.dumps({
            "vertices": [f"v{i:02d}" for i in range(20)],
            "edges": [{"id": f"e{i:02d}", "src": f"v{i:02d}",
                       "dst": f"v{i - 1:02d}"} for i in range(1, 20)]}))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"H": []}))
        return (ring, chain), ["--ideal", str(zero)]

    ENUMERATING = ["hsets", "primes", "algebra-check", "ideal-factor"]

    @pytest.mark.parametrize("command", ENUMERATING)
    def test_large_graphs_need_no_flag(self, capsys, tmp_path, command):
        graphs, ideal = self._ring_and_chain(tmp_path)
        extra = ideal if command == "ideal-factor" else []
        for path in graphs:
            data = run_json(capsys, command, "--graph", str(path), *extra)
            if command == "hsets":
                everything = sorted(json.loads(path.read_text())["vertices"])
                assert [row["H"] for row in data["sets"]] == [[], everything]

    @pytest.mark.parametrize("command", ENUMERATING)
    def test_bound_flag_is_gone(self, capsys, tmp_path, command):
        (_, chain), ideal = self._ring_and_chain(tmp_path)
        extra = ideal if command == "ideal-factor" else []
        code, _, _ = invoke(capsys, command, "--graph", str(chain), *extra,
                            "--bound", "16")
        assert code == 2

    def test_gf_trial_division_cap(self, capsys, tmp_path):
        # x^4 + x^2 + 5 is irreducible over GF(1000003); trial division would
        # have tried about 10^12 divisors, Cantor-Zassenhaus answers at once
        ideal = tmp_path / "ideal.json"
        ideal.write_text(json.dumps({"H": [], "field": "GF(1000003)", "parts": [
            {"cycle": ["v", "e"], "poly": [5, 0, 1, 0, 1]}]}))
        started = time.perf_counter()
        data = run_json(capsys, "ideal-classify", "--graph", graph("one_loop"),
                        "--ideal", str(ideal))
        assert data["prime"] == {"case": 3, "holds": True}
        assert data["completely_irreducible"]["holds"]
        assert time.perf_counter() - started < 5

    def test_algebra_check_needs_no_enumeration_without_k(self, capsys,
                                                          tmp_path):
        # a 40-vertex ring fails (K) and (L), so no predicate enumerates
        n = 40
        ring = tmp_path / "ring.json"
        ring.write_text(json.dumps({
            "vertices": [f"v{i:02d}" for i in range(n)],
            "edges": [{"id": f"e{i:02d}", "src": f"v{i:02d}",
                       "dst": f"v{(i + 1) % n:02d}"} for i in range(n)]}))
        data = run_json(capsys, "algebra-check", "--graph", str(ring))
        assert [row["verdict"] for row in data["predicates"]] == [False] * 5

    def test_long_chain_needs_no_recursion(self, capsys, tmp_path):
        # one condensation per graph or quotient, walked without recursion
        n = 2000
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "vertices": [f"v{i:04d}" for i in range(n)],
            "edges": [{"id": f"e{i:04d}", "src": f"v{i:04d}",
                       "dst": f"v{i - 1:04d}"} for i in range(1, n)]}))
        data = run_json(capsys, "analyze", "--graph", str(chain))
        assert data["strong_csp"] == {"core": data["vertices"], "holds": True}
        assert data["downward_directed"]["holds"]
        data = run_json(capsys, "algebra-check", "--graph", str(chain))
        assert [row["verdict"] for row in data["predicates"]] == [True] * 5

    def test_omega_fan_with_many_breaking_vertices(self, capsys, tmp_path):
        # each b_i sends an infinite bundle to the sink a and one edge to c,
        # which has two loops and an edge to a; so all 20 break over
        # closure({a}) = {a}: 2^20 pairs over one set
        fan = tmp_path / "fan.json"
        fan.write_text(json.dumps({
            "vertices": ["a", "c"] + [f"b{i:02d}" for i in range(20)],
            "edges": [{"id": "ca", "src": "c", "dst": "a"},
                      {"id": "c1", "src": "c", "dst": "c"},
                      {"id": "c2", "src": "c", "dst": "c"}]
            + [{"id": f"f{i:02d}", "src": f"b{i:02d}", "dst": "a",
                "mult": "inf"} for i in range(20)]
            + [{"id": f"g{i:02d}", "src": f"b{i:02d}", "dst": "c"}
               for i in range(20)]}))
        data = run_json(capsys, "algebra-check", "--graph", str(fan))
        chain = data["predicates"][2]
        assert chain["witness"]["pairs"] == [{"H": ["a"], "S": ["b00"]},
                                             {"H": ["a"], "S": ["b01"]}]

    @pytest.mark.parametrize("command",
                             ["algebra-check", "ideal-classify", "ideal-factor"])
    def test_strong_csp_takes_no_bound(self, capsys, tmp_path, command):
        # the strong CSP test on a 20-vertex chain runs past the default bound
        n = 20
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "vertices": [f"v{i:02d}" for i in range(n)],
            "edges": [{"id": f"e{i:02d}", "src": f"v{i:02d}",
                       "dst": f"v{i - 1:02d}"} for i in range(1, n)]}))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"H": []}))
        extra = {"algebra-check": [],
                 "ideal-classify": ["--ideal", str(zero)],
                 "ideal-factor": ["--ideal", str(zero), "--mode", "comp-irred"]}
        run_json(capsys, command, "--graph", str(chain), *extra[command])

    LOOP = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]}
    MALFORMED = [
        ("vertex_list", {"vertices": [["v"]], "edges": []}, None),
        ("edge_src_list", {"vertices": ["v"], "edges": [
            {"id": "e", "src": ["v"], "dst": "v"}]}, None),
        ("hset_list", LOOP, {"H": [["v"]]}),
        ("cycle_list_element", LOOP, {"field": "Q", "parts": [
            {"cycle": ["v", ["e"]], "poly": [1, 1]}]}),
        ("part_without_poly", LOOP, {"field": "Q", "parts": [
            {"cycle": ["v", "e"]}]}),
        ("field_number", LOOP, {"field": 5}),
        ("poly_zero_denominator", LOOP, {"field": "Q", "parts": [
            {"cycle": ["v", "e"], "poly": ["1/0", 1]}]}),
    ]

    @pytest.mark.parametrize("graph_data,ideal_data",
                             [c[1:] for c in MALFORMED],
                             ids=[c[0] for c in MALFORMED])
    def test_malformed_input_exits_2(self, capsys, tmp_path, graph_data,
                                     ideal_data):
        g = tmp_path / "graph.json"
        g.write_text(json.dumps(graph_data))
        argv = ["analyze", "--graph", str(g)]
        if ideal_data is not None:
            i = tmp_path / "ideal.json"
            i.write_text(json.dumps(ideal_data))
            argv = ["ideal-classify", "--graph", str(g), "--ideal", str(i)]
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and not out and "error:" in err


ANALYZE_ONE_LOOP = (
    '{"condition_K":{"holds":false,"witness":["v","e"]},'
    '"condition_L":{"holds":false,"witness":["v","e"]},'
    '"downward_directed":{"holds":true,"witness":null},"edge_count":1,'
    '"maximal_tails":[["v"]],"strong_csp":{"core":["v"],"holds":true},'
    '"vertex_classes":{"v":"regular"},"vertices":["v"]}\n')
TOP_USAGE = "usage: lpa [-h] COMMAND ...\n"
TOP_HELP = TOP_USAGE + """
Ideal calculus for Leavitt path algebras of finite graphs.

positional arguments:
  COMMAND
    analyze        structural summary of one graph
    hsets          enumerate hereditary saturated vertex sets
    tails          list maximal tails
    primes         enumerate graded prime ideals
    ideal-classify
                   canonical form, primality, complete irreducibility
    ideal-multiply
                   product of two or more ideals
    ideal-intersect
                   intersection of two or more ideals
    ideal-factor   factor into powers of distinct primes
    algebra-check  run the five ideal-lattice predicates
    export-dot     DOT rendering of the graph or a quotient

options:
  -h, --help       show this help message and exit
"""
ANALYZE_USAGE = "usage: lpa analyze [-h] --graph PATH [--pretty] [--dot]\n"
ANALYZE_HELP = ANALYZE_USAGE + """
structural summary of one graph

options:
  -h, --help    show this help message and exit
  --graph PATH  graph JSON file
  --pretty      indent JSON output
  --dot         emit DOT instead of JSON
"""
FACTOR_USAGE = ("usage: lpa ideal-factor [-h] --graph PATH [--pretty] --ideal PATH\n"
                "                        [--mode {prime-powers,comp-irred}] [--field F]\n")
CHOICES = ("'analyze', 'hsets', 'tails', 'primes', 'ideal-classify', "
           "'ideal-multiply', 'ideal-intersect', 'ideal-factor', 'algebra-check', "
           "'export-dot'")


class TestArgvCorpus:
    """Exit code and exact output of each argv form, as the full parser tree gave them.

    G and P stand for graph files, I for an ideal file on G; "no_such.json"
    and "g.json" are names no file has.  A form that starts with a command
    is parsed by that command's subparser alone; the rest, and any form
    with arguments left over, go through the whole tree.
    """

    FACTOR = ("ideal-factor", "--graph", "G", "--ideal", "I", "--mode")
    CORPUS = [
        ("no_args", (), 2, "",
         TOP_USAGE + "lpa: error: the following arguments are required: COMMAND\n"),
        ("help", ("--help",), 0, TOP_HELP, ""),
        ("h_before_command", ("-h", "analyze"), 0, TOP_HELP, ""),
        ("bogus", ("bogus",), 2, "",
         TOP_USAGE + f"lpa: error: argument COMMAND: invalid choice: 'bogus' "
                     f"(choose from {CHOICES})\n"),
        ("option_before_command", ("--graph", "g.json", "analyze"), 2, "",
         TOP_USAGE + f"lpa: error: argument COMMAND: invalid choice: 'g.json' "
                     f"(choose from {CHOICES})\n"),
        ("no_graph", ("analyze",), 2, "",
         ANALYZE_USAGE + "lpa analyze: error: the following arguments are "
                         "required: --graph\n"),
        ("graph_without_value", ("analyze", "--graph"), 2, "",
         ANALYZE_USAGE + "lpa analyze: error: argument --graph: expected one "
                         "argument\n"),
        ("command_help", ("analyze", "-h"), 0, ANALYZE_HELP, ""),
        ("abbreviated_help", ("analyze", "--he"), 0, ANALYZE_HELP, ""),
        ("unknown_flag", ("analyze", "--graph", "G", "--nope"), 2, "",
         TOP_USAGE + "lpa: error: unrecognized arguments: --nope\n"),
        ("flag_of_another_command", ("tails", "--graph", "G", "--dot"), 2, "",
         TOP_USAGE + "lpa: error: unrecognized arguments: --dot\n"),
        ("stray_positional", ("analyze", "--graph", "G", "stray"), 2, "",
         TOP_USAGE + "lpa: error: unrecognized arguments: stray\n"),
        ("double_dash", ("analyze", "--", "--graph", "G"), 2, "",
         ANALYZE_USAGE + "lpa analyze: error: the following arguments are "
                         "required: --graph\n"),
        ("abbreviations", ("analyze", "--gra", "G", "--pre"), 0,
         json.dumps(json.loads(ANALYZE_ONE_LOOP), sort_keys=True, indent=2) + "\n",
         ""),
        ("repeated_graph", ("analyze", "--graph", "P", "--graph", "G"), 0,
         ANALYZE_ONE_LOOP, ""),
        ("graph_with_equals", ("analyze", "--graph=G"), 0, ANALYZE_ONE_LOOP, ""),
        ("bad_mode", FACTOR + ("x",), 2, "",
         FACTOR_USAGE + "lpa ideal-factor: error: argument --mode: invalid "
                        "choice: 'x' (choose from 'prime-powers', 'comp-irred')\n"),
        ("abbreviated_mode", FACTOR + ("comp",), 2, "",
         FACTOR_USAGE + "lpa ideal-factor: error: argument --mode: invalid "
                        "choice: 'comp' (choose from 'prime-powers', 'comp-irred')\n"),
        ("one_ideal_to_multiply",
         ("ideal-multiply", "--graph", "G", "--ideal", "I"), 2, "",
         "error: need at least two --ideal arguments\n"),
        ("two_ideals_to_multiply",
         ("ideal-multiply", "--graph", "G", "--ideal", "I", "--ideal", "I"), 0,
         '{"H":[],"S":[],"field":"GF(2)","parts":[{"cycle":["v","e"],'
         '"poly":[1,0,1]}]}\n', ""),
        ("missing_file", ("analyze", "--graph", "no_such.json"), 2, "",
         "error: [Errno 2] No such file or directory: 'no_such.json'\n"),
        ("field_not_prime",
         ("ideal-classify", "--graph", "G", "--ideal", "I", "--field", "GF(4)"), 2,
         "", "error: bad field label 'GF(4)': 4 is not prime\n"),
        ("export_dot", ("export-dot", "--graph", "G"), 0,
         'digraph "E" {\n  "v" [label="v"];\n  "v" -> "v" [label="e"];\n}\n', ""),
    ]

    @pytest.mark.parametrize("argv,code,out,err", [c[1:] for c in CORPUS],
                             ids=[c[0] for c in CORPUS])
    def test_exit_code_and_output(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        files = {"G": graph("one_loop"), "P": graph("petals3"),
                 "I": str(DATA / "loop_x_plus_1.json")}
        def fill(arg):  # "G" or "--graph=G" names the file
            flag, eq, value = arg.rpartition("=")
            return flag + eq + files.get(value, value)

        got = invoke(capsys, *map(fill, argv))
        if out == TOP_HELP:
            # Python 3.13 lays out the command list in one wider column
            assert (got[0], got[1].split(), got[2]) == (code, out.split(), err)
        else:
            assert got == (code, out, err)
