"""[MGA] The knowledge-indexed most-general attacker vs. the paper's results.

One exploration of the environment-sensitive semantics covers every
attacker within the synthesis bound.  The benchmark re-derives the
paper's Section 5 verdicts from the MGA alone — no attacker processes,
no testers:

* P1 fails authentication (ATT1's impersonation, generalized);
* P2 passes authentication and payload secrecy (Proposition 2);
* Pm2 fails freshness (ATT2's replay, generalized);
* Pm3 passes freshness within the horizon (Proposition 4);
* abstract P passes authentication but *fails secrecy* — exactly the
  Section 5.1 remark that motivates localizing the output.
"""

from __future__ import annotations

from repro.analysis.environment import (
    env_authentication,
    env_freshness,
    env_secrecy,
)
from repro.semantics.lts import Budget

from benchmarks.conftest import (
    impl_challenge_response,
    impl_crypto,
    impl_crypto_multi,
    impl_plaintext,
    spec_single,
)

SINGLE = Budget(max_states=4000, max_depth=18)
MULTI = Budget(max_states=2500, max_depth=11)


def run_all():
    return {
        "p1_auth": env_authentication(impl_plaintext(), "A", budget=SINGLE),
        "p2_auth": env_authentication(impl_crypto(), "A", budget=SINGLE),
        "p2_secret": env_secrecy(impl_crypto(), "M", budget=SINGLE),
        "p_auth": env_authentication(spec_single(), "A", budget=SINGLE),
        "p_secret": env_secrecy(spec_single(), "M", budget=SINGLE),
        "pm2_fresh": env_freshness(impl_crypto_multi(), budget=Budget(3000, 12)),
        "pm3_fresh": env_freshness(impl_challenge_response(), budget=MULTI),
    }


def test_mga_rederives_section_5(benchmark):
    verdicts = benchmark(run_all)
    assert not verdicts["p1_auth"].holds  # ATT1, generalized
    assert verdicts["p2_auth"].holds and verdicts["p2_auth"].exhaustive  # PROP2
    assert verdicts["p2_secret"].holds
    assert verdicts["p_auth"].holds  # PROP1: partner authentication
    assert not verdicts["p_secret"].holds  # the SEC1 motivation
    assert not verdicts["pm2_fresh"].holds  # ATT2, generalized
    assert verdicts["pm3_fresh"].holds  # PROP4 (within budget)
