"""Chaos catalogue sweep: fault patterns vs. invariant outcomes.

Runs every scenario in :mod:`repro.faults.scenarios` with the online
:class:`~repro.faults.monitor.InvariantMonitor` attached and tabulates what
each fault pattern did to the service — violations flagged (split against
the scenario's *expected* set), delivery rate, and fault count.  The table
is the chaos layer's regression surface: an unexpected-violation count
above zero means a fault pattern broke an invariant the scenario did not
set out to break.
"""

from repro.faults.report import run_chaos
from repro.metrics.report import Table

SEED = 1


def run_catalogue():
    from repro.faults.scenarios import SCENARIOS

    table = Table("Chaos catalogue (seed %d)" % SEED,
                  ["scenario", "faults", "violations", "unexpected",
                   "delivery rate"])
    rows = {}
    for name in sorted(SCENARIOS):
        run = run_chaos(name, seed=SEED)
        injector = run.result.injector
        n_faults = len(injector.applied) if injector is not None else 0
        n_violations = len(run.violations)
        n_unexpected = len(run.unexpected_violations())
        delivery = run.result.metrics.delivery_rate
        table.add_row(name, n_faults, n_violations, n_unexpected,
                      round(delivery, 3))
        rows[name] = (n_faults, n_violations, n_unexpected)
    return table, rows


def test_chaos_catalogue(benchmark, record_table):
    table, rows = benchmark.pedantic(run_catalogue, rounds=1, iterations=1)
    record_table("chaos_scenarios", table.render())
    for name, (n_faults, _n_violations, n_unexpected) in rows.items():
        assert n_faults > 0, f"{name}: no fault ever fired"
        assert n_unexpected == 0, (
            f"{name}: {n_unexpected} violation(s) outside the scenario's "
            "expected set")
    # The crash scenarios must actually provoke what they promise.
    assert rows["primary_crash_burst_loss"][1] > 0
    assert rows["partition_heal_rejoin"][1] > 0
