"""The reflection attack the paper leaves as future work.

Section 5 of the paper ends:

    "If A and B could play both the two roles in parallel sessions, then
    the protocol above would suffer of a well-known reflection attack."

Here both principals run the Pm3 initiator AND responder roles under one
shared key.  A two-hop relay attacker routes B's own challenge to B's
initiator side; the responder then accepts a message whose true origin —
visible to the address-matching tester — is B itself, not A.

Run:  python examples/reflection_attack.py
"""

from repro import (
    Budget,
    Name,
    RelativeAddress,
    Test,
    bidirectional_pm3,
    compose,
    exhibits,
    narrate,
    origin_tester,
    output_barb,
    part_locations,
    passes,
    reflecting_attacker,
    search,
)

C = Name("c")
BUDGET = Budget(max_states=8000, max_depth=24)


def main() -> None:
    cfg = bidirectional_pm3().with_part("E", reflecting_attacker(C))
    locs = part_locations(cfg, with_tester=True)

    print("Who can the delivered message originate from?")
    for role in ("A-init", "B-init", "E"):
        addr = RelativeAddress.between(observer=locs["T"], target=locs[role])
        test = Test(
            f"origin-is-{role}",
            origin_tester(Name("observe"), addr),
            output_barb(Name("omega")),
        )
        passed, exhaustive = passes(cfg, test, BUDGET)
        qualifier = "" if exhaustive else " (within budget)"
        print(f"  {role:7s}: {'POSSIBLE' if passed else 'impossible'}{qualifier}")

        if passed and role == "B-init":
            system = compose(cfg, test.tester)
            trace = search(
                system, lambda s: exhibits(s, test.barb), BUDGET
            ).trace
            print("\n  The reflection, step by step:")
            for line in narrate(system, trace):
                print("   ", line)
            print()

    print(
        "\nB's responder accepted a message created by B's own initiator —\n"
        "the reflection attack.  With separated roles (the paper's Pm3)\n"
        "the only possible origin is A; see tests/test_reflection.py."
    )


if __name__ == "__main__":
    main()
