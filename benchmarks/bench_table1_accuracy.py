"""Table I — accuracy of all seven models on the three datasets.

Prints the same rows the paper's Table I reports (mean ± std accuracy per
model per dataset) and records the wall-clock cost of regenerating the table.
"""

from repro.experiments import table1_accuracy
from repro.experiments.tables import table_winner_summary


def test_table1_accuracy(run_once, suite):
    def regenerate():
        return table1_accuracy(suite)

    data, text = run_once(regenerate)
    print("\n" + text)
    winners = table_winner_summary(data)
    print(f"Best model per dataset: {winners}")
    if suite.report is not None:
        print(suite.report.summary())

    # Structural checks: every dataset has all seven models with valid scores.
    assert set(data) == set(suite.datasets())
    for cells in data.values():
        assert len(cells) == 7
        for mean, std in cells.values():
            assert 0.0 <= mean <= 1.0 and std >= 0.0
    # The HDC family must be competitive: on WESAD the best HDC model should
    # land within a few points of the best overall model.
    wesad = data["WESAD"]
    best = max(mean for mean, _ in wesad.values())
    best_hdc = max(wesad["OnlineHD"][0], wesad["BoostHD"][0])
    assert best_hdc > best - 0.15
