"""Figure 8 — robustness of DNN, OnlineHD and BoostHD to bit-flip noise.

Each model's parameters are perturbed with independent per-bit flip
probability p_b; accuracy over repeated trials is summarised by its mean and
Median Absolute Deviation.  The paper reports BoostHD losing by far the least
accuracy and having the smallest MAD.
"""

from repro.experiments import figure8_robustness


def test_fig8_bitflip_robustness(run_once, wesad, scale):
    probabilities = (1e-6, 1e-5, 1e-4)

    def regenerate():
        return figure8_robustness(
            wesad,
            probabilities=probabilities,
            model_names=("DNN", "OnlineHD", "BoostHD"),
            seed=0,
            scale=scale,
        )

    results, text = run_once(regenerate)
    print("\n" + text)

    assert set(results) == {"DNN", "OnlineHD", "BoostHD"}
    for sweep in results.values():
        assert len(sweep.points) == len(probabilities)
        assert 0.0 <= sweep.clean_accuracy <= 1.0

    boost = results["BoostHD"]
    online = results["OnlineHD"]
    print(
        "MAD: "
        + ", ".join(f"{name}={sweep.overall_mad:.4f}" for name, sweep in results.items())
    )
    # At the paper's p_b = 1e-5 operating point the ensemble's loss must stay
    # small (the paper reports <= 5.7 %) and no worse than OnlineHD's by much.
    index = probabilities.index(1e-5)
    assert boost.accuracy_loss[index] < 0.15
    assert boost.accuracy_loss[index] <= online.accuracy_loss[index] + 0.05
