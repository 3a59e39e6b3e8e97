"""Quickstart: specify a protocol, run it, and verify an implementation.

This walks the library's whole pipeline in one page:

1. build the paper's abstract (secure-by-construction) protocol ``P``
   and the shared-key implementation ``P2``;
2. execute an honest run of ``P2`` and print its narration;
3. check Definition 4 — ``P2`` securely implements ``P`` — against the
   standard attacker suite, with the barbed-simulation cross-check.

Run:  python examples/quickstart.py
"""

from repro import (
    Budget,
    Configuration,
    Name,
    abstract_protocol,
    compose,
    crypto_protocol,
    exhibits,
    narrate,
    output_barb,
    search,
    securely_implements,
    standard_attackers,
)


def main() -> None:
    c = Name("c")

    # -- 1. the two protocols as testable configurations ---------------
    spec = Configuration(
        parts=(("P", abstract_protocol()),),
        private=(c,),
        subroles=(("P", (0,), "A"), ("P", (1,), "B")),
    )
    impl = Configuration(
        parts=(("P2", crypto_protocol()),),
        private=(c,),
        subroles=(("P2", (0,), "A"), ("P2", (1,), "B")),
    )

    # -- 2. an honest run of P2 ----------------------------------------
    system = compose(impl)
    done = search(
        system, lambda s: exhibits(s, output_barb(Name("observe")))
    ).trace
    print("Honest run of P2 (A sends {M}KAB, B decrypts and republishes):")
    for line in narrate(system, done):
        print(" ", line)
    print()

    # -- 3. Definition 4 ------------------------------------------------
    verdict = securely_implements(
        impl,
        spec,
        standard_attackers([c]),
        budget=Budget(max_states=2000, max_depth=40),
        check_simulation=True,
    )
    print("Does P2 securely implement the abstract P?")
    print(" ", verdict.describe())
    for sim in verdict.simulations:
        print("  simulation:", sim.describe())


if __name__ == "__main__":
    main()
