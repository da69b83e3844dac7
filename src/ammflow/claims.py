"""The paper's claims as predicates over scenario runs.

Each function executes what it is given and returns the names of the
conditions it found violated; an empty list means the claim holds.
"""

from __future__ import annotations

from .amm import INTEGER
from .calibration import calibrate_reserves, replay_and_validate
from .engine import net_deltas, trace_to_json
from .graph import (attribute, build_graph, taint_haircut, taint_poison,
                    trace_canonical_form)
from .scenarios import build_benign_twin, build_peb_scenario
from .semantic import recover_migrations


def _violated(**holds: bool) -> list[str]:
    return [name for name, ok in holds.items() if not ok]


def zero_fee_relocation_exact(run) -> list[str]:
    """A fee-free relocation moves exactly a from the principal to the
    beneficiary, every other address nets zero, and both pools end where
    they started."""
    after, trace = run.execute()
    deltas = net_deltas(trace)
    a, sym = run.plan.a, run.plan.asset.symbol
    return _violated(
        principal_to_beneficiary_moves_a=(
            deltas.get((run.principal, sym), 0) == -a
            and deltas.get((run.beneficiary, sym), 0) == a),
        intermediaries_net_zero=all(
            delta == 0 for (addr, _), delta in deltas.items()
            if addr not in (run.principal, run.beneficiary)),
        pools_restored_exactly=all(
            after.pools[pid] == pool for pid, pool in run.world.pools.items()))


def observer_gap(run) -> list[str]:
    """No asset's transfer graph attributes the run's migration, while the
    semantic observer recovers exactly one from principal to beneficiary,
    of the planned a' when the run is a relocation."""
    _, trace = run.execute()
    p, b = run.principal, run.beneficiary
    found = [m.amount for m in recover_migrations(trace, None, None).migrations
             if (m.principal, m.beneficiary) == (p, b)]
    return _violated(
        transfer_layer_not_recoverable=not any(
            attribute(build_graph(trace, asset), p, b).recoverable
            for asset in {ev.asset for ev in trace.events}),
        semantic_recovers_the_migration=len(found) == 1 and (
            run.plan is None or found[0] == run.plan.predicted_a_prime))


def peb_separation(run) -> list[str]:
    """In a limit-order fill the principal neither initiates the bundle
    nor sends anything to the beneficiary, yet the semantic observer names
    the principal, the executor and the beneficiary."""
    _, trace = run.execute()
    roles = recover_migrations(trace, None, None).roles
    return _violated(
        executor_is_not_principal=trace.initiator != run.principal,
        no_principal_to_beneficiary_transfer=not any(
            ev.src == run.principal and ev.dst == run.beneficiary
            for ev in trace.events),
        semantic_names_the_roles=[roles.get(addr) for addr in (
            run.principal, trace.initiator, run.beneficiary)]
        == ["Principal", "Executor", "Beneficiary"])


def twin_indistinguishable(run) -> list[str]:
    """A relocation's trace is canonically equal to its benign twin's, and
    one extra edge on the twin breaks the equality."""
    form, twin, perturbed = (
        trace_canonical_form(r.execute()[1]) for r in (
            run, build_benign_twin(run), build_benign_twin(run, perturb=True)))
    return _violated(twin_canonically_equal=twin == form,
                     perturbation_breaks_equality=perturbed != form)


def taint_divergence(run) -> list[str]:
    """Poison marks a relocation's beneficiary outright while haircut
    dilutes it below 1, and where no pool charges a fee the two rules'
    positive sets differ.  An operator that is the principal is a flagged
    sender, so both rules count what it sends as wholly tainted."""
    _, trace = run.execute()
    graph = build_graph(trace, run.plan.asset)
    marks = taint_poison(graph, {run.principal})
    fractions = taint_haircut(graph, {run.principal})
    haircut, flagged = fractions[run.beneficiary], \
        run.initiator == run.principal
    return _violated(
        poison_marks_beneficiary=marks[run.beneficiary],
        haircut_dilutes_unless_flagged=(
            haircut == 1.0 if flagged else 0 < haircut < 1),
        positive_sets_diverge=flagged or any(
            pool.fee_bps for pool in run.world.pools.values())
        or {n for n, m in marks.items() if m}
        != {n for n, f in fractions.items() if f > 0})


def flash_equivalence(**params) -> list[str]:
    """A limit-order fill (`build_peb_scenario` parameters) nets the
    principal and the beneficiary identically whether its filler floats
    the taker amount by flash loan or by AMM flash swap, and in rational
    mode every address nets identically.  (In integer mode the flash loan
    leaves its executor the dust its floored swap returns above the taker
    amount; the flash swap leaves that dust in the pool.)"""
    loan, swap = (build_peb_scenario(variant=variant, **params)
                  for variant in ("flash_loan", "flash_swap"))
    loan_net, swap_net = ({key: v for key, v in net_deltas(run.execute()[1])
                           .items() if v != 0}
                          for run in (loan, swap))
    return _violated(
        principal_and_beneficiary_net_identically=all(
            loan_net.get(key) == swap_net.get(key)
            for key in loan_net.keys() | swap_net.keys()
            if key[0] in (loan.principal, loan.beneficiary)),
        every_address_nets_identically=loan_net == swap_net
        or loan.world.mode is INTEGER)


def calibration_replays(obs) -> list[str]:
    """Reserves calibrated from an observation set replay each observed
    quantity within 1e-3 relative error; a violation names the quantity."""
    report = replay_and_validate(calibrate_reserves(obs), obs)
    return [key for key, err in sorted(report.items())
            if key.endswith("_rel_err") and not err <= 1e-3]


def deterministic_replay(build) -> list[str]:
    """Two runs made by `build()` execute to byte-identical traces."""
    texts = {trace_to_json(run.execute()[1], run.world.mode)
             for run in (build(), build())}
    return _violated(replay_byte_identical=len(texts) == 1)
