"""Analyze the classic-protocol zoo end to end.

For each of Needham-Schroeder-SK, Otway-Rees and Yahalom:

1. print the narration;
2. compile it and replay the honest run;
3. check session-key secrecy against an eavesdropper;
4. check payload authentication against an impersonator;
5. print state-space statistics for the composed system.

Run:  python examples/protocol_zoo.py
"""

from repro import (
    Budget,
    Name,
    ZOO,
    authentication,
    compose,
    exhibits,
    explore,
    keeps_secret,
    impersonator,
    narrate,
    narration_configuration,
    output_barb,
    search,
    statistics,
)
from repro.analysis.intruder import eavesdropper

C = Name("c")
BUDGET = Budget(max_states=8000, max_depth=40)


def analyze(name: str) -> None:
    spec = ZOO[name]()
    print(f"=== {name} ===")
    print(spec.render())

    cfg = narration_configuration(spec, observed_role="B", observed_datum="PAYLOAD")

    system = compose(cfg)
    trace = search(
        system, lambda s: exhibits(s, output_barb(Name("observe"))), BUDGET
    ).trace
    print("\nhonest run:")
    for line in narrate(system, trace):
        print(" ", line)

    spied = cfg.with_part("E", eavesdropper(C, messages=6))
    secret = keeps_secret(spied, "KAB", budget=BUDGET)
    print("\nsession-key secrecy :", secret.describe())

    attacked = cfg.with_part("E", impersonator(C))
    authentic = authentication(attacked, sender_role="A", budget=BUDGET)
    print("payload authenticity:", authentic.describe())

    print("state space         :", statistics(explore(compose(spied), BUDGET)).describe())
    print()


def main() -> None:
    for name in sorted(ZOO):
        analyze(name)


if __name__ == "__main__":
    main()
