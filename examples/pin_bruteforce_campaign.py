#!/usr/bin/env python
"""Figure 2 hands-on: brute-forcing the PIN by rolling back state.

The secret module's ``tries_left = 3`` counter stops an I/O attacker
cold: three wrong guesses and every later answer is 0.  But an
attacker who controls the *platform* can snapshot the machine before
guessing and restore it after every failure -- the counter is rewound
along with everything else, and the whole PIN space falls at
copy-on-write restore speed.  This is exactly the rollback attack
Section IV-C's hardware monotonic counters exist to stop (see
examples/attestation_rollback.py for that defence).

1. The in-run attacker sends 100 guesses down one session: locked out.
2. The rollback attacker wraps one warm machine in a CampaignSession,
   restoring the pristine snapshot between guesses: PIN recovered.
3. The same campaign through CampaignRunner, timed warm vs cold.

Run:  PYTHONPATH=src python examples/pin_bruteforce_campaign.py
"""

from repro.campaign import CampaignRunner, CampaignSession
from repro.experiments.campaign_exp import PinGuessTrial, SecretFactory
from repro.experiments.modules_exp import io_attacker_lockout


def main() -> None:
    print("=== the honest interface: one session, many guesses ===")
    lockout = io_attacker_lockout(guess_budget=100)
    print(f"  guesses sent      : {lockout['guesses_sent']}")
    print(f"  non-zero answers  : {lockout['nonzero_answers']}")
    print(f"  locked out        : {lockout['locked_out']}")

    print("\n=== the rollback attacker: restore between guesses ===")
    session = CampaignSession(SecretFactory(), PinGuessTrial(first_pin=1000))
    found = None
    for index in range(500):                  # PINs 1000..1499
        pin = session.run_trial(index)
        if pin is not None:
            found = pin
            break
    print(f"  guesses tried     : {index + 1}")
    print(f"  PIN recovered     : {found}")
    print(f"  pages rewound     : {session.restored_pages} "
          f"(~{session.restored_pages / (index + 1):.1f} per restore)")

    print("\n=== the same campaign, timed warm vs cold ===")
    with CampaignRunner(SecretFactory(), trial=PinGuessTrial(1200)) as runner:
        warm = runner.submit_items(range(64)).result()
    cold = runner.run_cold(64)
    speedup = warm.trials_per_second / cold.trials_per_second
    print(f"  snapshot restore  : {warm.trials_per_second:,.0f} trials/s")
    print(f"  cold rebuild      : {cold.trials_per_second:,.0f} trials/s")
    print(f"  speedup           : {speedup:.0f}x")
    print("\nThe counter the module trusts lives in resettable state;"
          "\nonly a counter *outside* the snapshot (hardware monotonic"
          "\ncounters, Section IV-C) survives this attacker.")


if __name__ == "__main__":
    main()
