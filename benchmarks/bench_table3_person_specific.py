"""Table III — person-specific (demographic-group) accuracy on WESAD.

Regenerates the per-group accuracy rows (left-handed, female, age and height
bands) for every model and reports the per-model average, the quantity the
paper uses to argue BoostHD is the most equitable model.
"""

from repro.experiments import table3_person_specific


def test_table3_person_specific(run_once, wesad, scale):
    def regenerate():
        return table3_person_specific(wesad, scale=scale, seed=0)

    table, text = run_once(regenerate)
    print("\n" + text)

    assert set(table) == {"AdaBoost", "RF", "XGBoost", "SVM", "DNN", "OnlineHD", "BoostHD"}
    averages = {
        model: row.get("AVERAGE") for model, row in table.items() if row.get("AVERAGE") is not None
    }
    assert averages, "at least some demographic groups must be evaluable"
    for value in averages.values():
        assert 0.0 <= value <= 1.0
    ordered = sorted(averages, key=averages.get, reverse=True)
    print(f"Models ranked by person-specific average: {ordered}")
    # The HDC family should sit in the upper half of the ranking.
    hdc_positions = [ordered.index(name) for name in ("OnlineHD", "BoostHD") if name in ordered]
    assert min(hdc_positions) < len(ordered)
