"""Tour of the graded ideal lattice of a small graph.

Builds the fan graph with an infinite edge bundle, lists every hereditary
saturated vertex set with its breaking vertices, and walks the lattice of
admissible pairs with meet and join.
"""

from lpaideals import (
    Ideal,
    breaking_vertices,
    enumerate_hereditary_saturated,
    graph_to_dot,
    join_graded,
    meet_graded,
    omega_fan,
)
from lpaideals.oracles import enumerate_admissible_pairs


def label(ideal):
    h = ",".join(sorted(ideal.pair.vertices)) or "-"
    s = ",".join(sorted(ideal.pair.breaking)) or "-"
    return f"I(H={{{h}}}, S={{{s}}})"


def main():
    graph = omega_fan()
    print("the fan graph, one vertex emitting an infinite bundle:")
    print(graph_to_dot(graph))

    print("hereditary saturated sets and their breaking vertices:")
    for hset in enumerate_hereditary_saturated(graph):
        broken = sorted(breaking_vertices(graph, hset))
        print(f"  H = {sorted(hset) or ['-']}, breaking = {broken or ['-']}")

    ideals = [Ideal(graph, p) for p in enumerate_admissible_pairs(graph)]
    print(f"\n{len(ideals)} graded ideals; pairwise meets and joins:")
    for i, a in enumerate(ideals):
        for b in ideals[i + 1:]:
            met, joined = meet_graded(a, b), join_graded(a, b)
            print(f"  {label(a)} ^ {label(b)} = {label(met)}")
            print(f"  {label(a)} v {label(b)} = {label(joined)}")


if __name__ == "__main__":
    main()
