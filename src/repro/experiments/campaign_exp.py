"""Snapshot-campaign ports of the repeated-trial experiments.

Three experiment families re-run many trials against the same victim;
each previously rebuilt the whole toolchain pipeline per trial.  Here
they ride :class:`~repro.campaign.CampaignRunner` instead -- one
build, one copy-on-write snapshot, O(dirty-pages) restores:

* **ASLR guess sweep** -- the E6 statistics from a fixed victim.  The
  original sweep re-rolls the *victim's* layout every trial while the
  attacker guesses shift zero; a snapshot campaign necessarily fixes
  the victim, so the randomness moves to the *attacker*: each trial
  guesses a uniformly drawn text shift and rebases the return-to-libc
  payload by it.  Success still requires guess == actual shift, so the
  per-trial success probability is exactly ``2**-bits`` either way --
  the distributions are identical, only the cost per trial changes.
* **Figure 2 PIN brute force** -- the rollback attack made concrete.
  In a single run the module's ``tries_left`` counter locks the
  attacker out after three wrong guesses
  (:func:`repro.experiments.modules_exp.io_attacker_lockout`); with a
  snapshot restore between guesses the counter is rewound every time
  and the whole PIN space falls.  This is why Section IV-C needs
  counters *outside* the resettable state (hardware monotonic
  counters), which :mod:`repro.experiments.attestation_exp` covers.
* **Matrix repeated cells** -- the return-to-libc row of the E4 matrix
  replayed ``trials`` times per deployment posture from one warm
  snapshot each, confirming the verdicts are stable (and measuring the
  ASLR cell's success *rate* rather than a single sample).
"""

from __future__ import annotations

import random
import struct
from collections import Counter
from dataclasses import dataclass

from repro.attacks.base import Outcome, classify_failure
from repro.attacks.payloads import smash
from repro.attacks.study import locate_overflow
from repro.campaign import CampaignResult, CampaignRunner
from repro.experiments.reporting import render_kv, render_table
from repro.machine.memory import PAGE_SIZE
from repro.minic.codegen import SECURITY_ABORT_EXIT_CODE
from repro.mitigations.config import MATRIX_PRESETS, NONE, MitigationConfig
from repro.programs.builders import build_fig1, build_secret_program

# ---------------------------------------------------------------------------
# Picklable campaign pieces (module-level so the process pool can ship
# them to workers, exactly like matrix._run_cell).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig1Factory:
    """Builds the Figure 1 victim once per worker."""

    config: MitigationConfig
    seed: int

    def __call__(self):
        return build_fig1(self.config, seed=self.seed, wide_open=True)


@dataclass(frozen=True)
class SecretFactory:
    """Builds the Figure 2 secret-module program once per worker."""

    seed: int = 0

    def __call__(self):
        return build_secret_program(NONE, seed=self.seed)


@dataclass(frozen=True)
class Ret2LibcGuessTrial:
    """One return-to-libc attempt with a per-trial guessed ASLR shift.

    The offsets and symbols come from the attacker's *local* study (an
    unrandomised build of the same binary); only the text shift is
    unknown, and the trial rebases both libc targets by its guess.
    """

    offset_to_return: int
    spawn: int
    exit_fn: int
    bits: int
    base_seed: int
    max_instructions: int = 2_000_000

    def __call__(self, target, index: int) -> str:
        guess = 0
        if self.bits:
            rng = random.Random(f"{self.base_seed}:{index}")
            guess = rng.randrange(1 << self.bits) * PAGE_SIZE
        target.feed(smash(self.offset_to_return,
                          self.spawn + guess, self.exit_fn + guess))
        run = target.run(self.max_instructions)
        if run.shell_spawned:
            return Outcome.SUCCESS.value
        if run.exit_code == SECURITY_ABORT_EXIT_CODE:
            return Outcome.DETECTED.value
        return classify_failure(run).outcome.value


@dataclass(frozen=True)
class PinGuessTrial:
    """One PIN guess against a freshly rewound ``tries_left = 3``."""

    first_pin: int = 0
    max_instructions: int = 2_000_000

    def __call__(self, target, index: int) -> int | None:
        pin = self.first_pin + index
        target.feed(struct.pack("<II", 1, pin))
        run = target.run(self.max_instructions)
        return pin if b"666" in run.output.split() else None


# ---------------------------------------------------------------------------
# ASLR guess sweep
# ---------------------------------------------------------------------------


@dataclass
class GuessPoint:
    bits: int
    trials: int
    successes: int
    trials_per_second: float
    restored_pages: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def expected_rate(self) -> float:
        return 2.0 ** -self.bits


def aslr_guess_campaign(bits_list=(0, 1, 2, 3, 4, 6), trials: int = 64,
                        base_seed: int = 100,
                        jobs: int | None = None) -> list[GuessPoint]:
    """E6 over snapshots: fixed victim, per-trial guessed shift."""
    points = []
    for bits in bits_list:
        config = MitigationConfig(aslr_bits=bits) if bits else MitigationConfig()
        local = build_fig1(config.with_(aslr_bits=0), wide_open=True)
        site = locate_overflow(local, frames_up=1)
        trial = Ret2LibcGuessTrial(
            site.offset_to_return,
            local.symbol("libc_spawn_shell"),
            local.symbol("libc_exit"),
            bits,
            base_seed + bits,
        )
        with CampaignRunner(Fig1Factory(config, base_seed), trial=trial,
                            jobs=jobs) as runner:
            result = runner.submit_items(range(trials)).result()
        successes = sum(1 for verdict in result.verdicts
                        if verdict == "success")
        points.append(GuessPoint(bits, trials, successes,
                                 result.trials_per_second,
                                 result.restored_pages))
    return points


def render_guess_sweep(points: list[GuessPoint]) -> str:
    rows = [
        [p.bits, p.trials, f"{p.rate:.3f}", f"{p.expected_rate:.3f}",
         f"{p.trials_per_second:.0f}", p.restored_pages]
        for p in points
    ]
    return render_table(
        ["ASLR bits", "trials", "success rate", "~expected 2^-bits",
         "trials/s", "pages rewound"],
        rows,
        title="Campaign E6: blind guess success vs ASLR entropy "
              "(one victim, snapshot/restore per trial)",
    )


# ---------------------------------------------------------------------------
# Figure 2 PIN brute force (the rollback attack)
# ---------------------------------------------------------------------------


def pin_bruteforce_campaign(pin_space: int = 1500, first_pin: int = 0,
                            lockout_budget: int = 100,
                            jobs: int | None = None) -> dict:
    """Brute-force the Figure 2 PIN by rolling back ``tries_left``.

    Contrasts the in-run attacker (lockout after three wrong guesses)
    with the snapshot attacker, who rewinds the module's state between
    guesses and searches the whole space.
    """
    from repro.experiments.modules_exp import io_attacker_lockout

    lockout = io_attacker_lockout(guess_budget=lockout_budget)
    with CampaignRunner(SecretFactory(), trial=PinGuessTrial(first_pin),
                        jobs=jobs) as runner:
        result = runner.submit_items(range(pin_space)).result()
    found = [pin for pin in result.verdicts if pin is not None]
    return {
        "in_run_guesses": lockout["guesses_sent"],
        "in_run_locked_out": lockout["locked_out"],
        "rollback_guesses": pin_space,
        "rollback_found_pin": found[0] if found else None,
        "rollback_trials_per_second": result.trials_per_second,
        "rollback_pages_rewound": result.restored_pages,
    }


def render_pin_campaign(report: dict) -> str:
    found = report["rollback_found_pin"]
    return render_kv(
        "Campaign Fig.2: PIN brute force, in-run vs snapshot rollback",
        {
            "in-run attacker": (
                f"{report['in_run_guesses']} guesses, "
                + ("locked out by tries_left"
                   if report["in_run_locked_out"] else "NOT locked out")),
            "rollback attacker": (
                f"{report['rollback_guesses']} guesses, "
                + (f"PIN recovered: {found}" if found is not None
                   else "PIN not in searched range")),
            "rollback cost": (
                f"{report['rollback_trials_per_second']:.0f} trials/s, "
                f"{report['rollback_pages_rewound']} pages rewound"),
        })


# ---------------------------------------------------------------------------
# Matrix repeated cells
# ---------------------------------------------------------------------------

#: The deployment postures whose return-to-libc cell gets re-trialled.
CAMPAIGN_PRESETS = ("none", "dep", "aslr", "deployed")


def matrix_campaign(trials: int = 12, base_seed: int = 7,
                    jobs: int | None = None) -> list[dict]:
    """Replay the return-to-libc matrix row ``trials`` times per preset."""
    presets = dict(MATRIX_PRESETS)
    rows = []
    for name in CAMPAIGN_PRESETS:
        config = presets[name]
        local = build_fig1(config.with_(aslr_bits=0), wide_open=True)
        site = locate_overflow(local, frames_up=1)
        trial = Ret2LibcGuessTrial(
            site.offset_to_return,
            local.symbol("libc_spawn_shell"),
            local.symbol("libc_exit"),
            config.aslr_bits,
            base_seed,
        )
        with CampaignRunner(Fig1Factory(config, base_seed), trial=trial,
                            jobs=jobs) as runner:
            result = runner.submit_items(range(trials)).result()
        counts = Counter(result.verdicts)
        rows.append({
            "preset": name,
            "trials": trials,
            "success": counts.get(Outcome.SUCCESS.value, 0),
            "detected": counts.get(Outcome.DETECTED.value, 0),
            "crashed": counts.get(Outcome.CRASHED.value, 0),
            "no_effect": counts.get(Outcome.NO_EFFECT.value, 0),
            "trials_per_second": result.trials_per_second,
        })
    return rows


def render_matrix_campaign(rows: list[dict]) -> str:
    return render_table(
        ["preset", "trials", "success", "detected", "crashed", "no effect",
         "trials/s"],
        [[row["preset"], row["trials"], row["success"], row["detected"],
          row["crashed"], row["no_effect"],
          f"{row['trials_per_second']:.0f}"] for row in rows],
        title="Campaign E4: return-to-libc row, repeated from one "
              "snapshot per preset",
    )


# ---------------------------------------------------------------------------
# Headline throughput sample + CLI entry
# ---------------------------------------------------------------------------


def snapshot_vs_cold(trials: int = 64,
                     base_seed: int = 100) -> tuple[CampaignResult, CampaignResult]:
    """Run the same return-to-libc campaign warm and cold (sequential
    both ways, so the ratio is pure snapshot-vs-rebuild).  The warm
    timing still includes its single build, so enough trials are
    needed to show the steady-state gap."""
    config = MitigationConfig(aslr_bits=4)
    local = build_fig1(config.with_(aslr_bits=0), wide_open=True)
    site = locate_overflow(local, frames_up=1)
    trial = Ret2LibcGuessTrial(
        site.offset_to_return,
        local.symbol("libc_spawn_shell"),
        local.symbol("libc_exit"),
        config.aslr_bits,
        base_seed,
    )
    with CampaignRunner(Fig1Factory(config, base_seed),
                        trial=trial) as runner:
        warm = runner.submit_items(range(trials)).result()
    cold = runner.run_cold(trials)
    return warm, cold


def run_campaign(jobs: int | None = None, seed: int | None = None) -> str:
    base_seed = 100 if seed is None else seed
    warm, cold = snapshot_vs_cold()
    speedup = (warm.trials_per_second / cold.trials_per_second
               if cold.trials_per_second else float("inf"))
    parts = [
        render_guess_sweep(aslr_guess_campaign(trials=32, base_seed=base_seed,
                                               jobs=jobs)),
        render_pin_campaign(pin_bruteforce_campaign(jobs=jobs)),
        render_matrix_campaign(matrix_campaign(base_seed=base_seed + 7,
                                               jobs=jobs)),
        render_kv("Snapshot restore vs cold rebuild (same trials, "
                  "sequential)", {
                      "snapshot": f"{warm.trials_per_second:.0f} trials/s "
                                  f"({warm.restored_pages} pages rewound)",
                      "cold rebuild": f"{cold.trials_per_second:.1f} trials/s",
                      "speedup": f"{speedup:.1f}x",
                  }),
    ]
    return "\n\n".join(parts)
