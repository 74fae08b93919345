"""How raw generator data collapses to a canonical ideal form.

Every ideal is I(H,S) plus finitely many cycle parts f(c) with c an
exitless cycle of the quotient graph.  canonicalize repairs whatever the
caller hands in: exits pull their targets into H, polynomials lose units
and x-powers, duplicate cycles merge by gcd.
"""

from lpaideals import FieldSpec, canonicalize, loop_chain, omega_loop
from lpaideals.graphs import Cycle
from lpaideals.poly import poly

Q = FieldSpec.rationals()


def show(title, ideal):
    print(f"{title}\n  -> {ideal!r}\n")


def main():
    g = loop_chain()
    uloop = Cycle.build(("u",), ("uu",))

    show("scaled polynomial 3x+3 at the exit-free w loop",
         canonicalize(g, (), (), [(Cycle.build(("w",), ("ww",)),
                                   poly(Q, (3, 3)))]))

    # the u loop has the exit u->w, so <f(u-loop)> only makes sense once w
    # is swallowed; canonicalize finds that closure by itself
    show("polynomial at a loop with an exit",
         canonicalize(g, (), (), [(uloop, poly(Q, (1, 1)))]))

    show("duplicate cycles merge by gcd: (x+1) and (x+1)^2",
         canonicalize(g, ("w",), (), [(uloop, poly(Q, (1, 1))),
                                      (uloop, poly(Q, (1, 2, 1)))]))

    show("coprime polynomials generate a unit, the cycle collapses",
         canonicalize(g, ("w",), (), [(uloop, poly(Q, (1, 1))),
                                      (uloop, poly(Q, (1, 0, 1)))]))

    # an infinite emitter whose loop keeps a primed exit in the quotient
    # forces its own gap idempotent into S
    g2 = omega_loop()
    show("cycle part on the infinite-emitter loop",
         canonicalize(g2, ("h",), (), [(Cycle.build(("u",), ("e",)),
                                        poly(Q, (1, 1)))]))


if __name__ == "__main__":
    main()
