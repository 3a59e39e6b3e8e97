"""Design a key-transport protocol with the narration compiler.

A realistic workflow: write the protocol as an Alice&Bob narration
(wide-mouthed-frog style key transport through a trusted server),
compile it to the calculus, watch an honest run, then hunt for attacks
with the Definition-4 driver — comparing against the paper's abstract
multisession specification, whose partner authentication makes it the
reference for "the payload really came from A".

Run:  python examples/key_transport.py
"""

from repro import (
    Budget,
    Configuration,
    Name,
    abstract_protocol,
    compose,
    exhibits,
    narrate,
    narration_configuration,
    output_barb,
    search,
    securely_implements,
    standard_attackers,
    wide_mouthed_frog,
)


def main() -> None:
    spec = wide_mouthed_frog()
    print("The protocol, as narrated:")
    print(spec.render())
    print()

    cfg = narration_configuration(spec)

    # -- honest run ------------------------------------------------------
    system = compose(cfg)
    trace = search(
        system,
        lambda s: exhibits(s, output_barb(Name("observe"))),
        Budget(max_states=4000, max_depth=30),
    ).trace
    print("Honest run:")
    for line in narrate(system, trace):
        print(" ", line)
    print()

    # -- attack hunt ------------------------------------------------------
    # Reference: the paper's abstract single-session protocol, which
    # guarantees by construction that B's continuation only ever sees a
    # datum created by A.
    abstract = Configuration(
        parts=(
            ("P", abstract_protocol()),
            # pad to the same part count so tester addresses line up
            ("S", __import__("repro").Nil()),
        ),
        private=(Name("c"),),
        subroles=(("P", (0,), "A"), ("P", (1,), "B")),
    )
    verdict = securely_implements(
        cfg,
        abstract,
        standard_attackers([Name("c")]),
        roles=("A", "B", "S", "E"),
        budget=Budget(max_states=4000, max_depth=30),
    )
    print("Definition-4 check against the abstract reference:")
    print(" ", verdict.describe())


if __name__ == "__main__":
    main()
