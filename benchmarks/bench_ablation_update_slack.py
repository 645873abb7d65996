"""Ablation B: transmission slack (Section 4.3's "twice as often").

The paper sets the update period to (δ-ℓ)/2 — half of what Theorem 5 needs —
"to compensate for potential message loss".  This sweep varies the slack
factor at fixed loss and shows the trade: more slack costs CPU/network but
cuts backup inconsistency.
"""

from repro.experiments.harness import run_scenario
from repro.metrics.report import Table
from repro.units import ms, to_ms
from repro.workload.scenarios import Scenario

HORIZON = 15.0
SLACKS = (1.0, 1.5, 2.0, 3.0)
LOSS = 0.08


def run_sweep():
    table = Table(
        "Ablation: transmission slack factor at 8% loss "
        "(paper default = 2.0)",
        ["slack", "updates sent", "avg max distance (ms)",
         "avg inconsistency (ms)"])
    rows = []
    for slack in SLACKS:
        result = run_scenario(Scenario(
            n_objects=8, window=ms(200.0), client_period=ms(50.0),
            loss_probability=LOSS, slack_factor=slack,
            retransmission_enabled=False, horizon=HORIZON, seed=2))
        sent = len(result.service.trace.select("update_sent"))
        table.add_row(slack, sent, to_ms(result.metrics.avg_max_distance),
                      to_ms(result.metrics.avg_inconsistency))
        rows.append((slack, sent, result.metrics.avg_max_distance,
                     result.metrics.avg_inconsistency))
    return table, rows


def test_slack_ablation(benchmark, record_table):
    table, rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    record_table("ablation_update_slack", table.render())
    by_slack = {slack: (sent, distance, inconsistency)
                for slack, sent, distance, inconsistency in rows}
    # More slack = more transmissions...
    assert by_slack[3.0][0] > 2 * by_slack[1.0][0]
    # ...and better freshness under loss.
    assert by_slack[3.0][1] < by_slack[1.0][1]
