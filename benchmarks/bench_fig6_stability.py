"""Figure 6 — accuracy and run-to-run σ of BoostHD vs OnlineHD as D grows.

The paper reports µ_σ ≈ 0.0046 for BoostHD vs 0.0127 for OnlineHD — the
ensemble is roughly three times more stable across random seeds.  This
benchmark regenerates the (accuracy, σ) curves over a dimension sweep and
compares the two µ_σ values.
"""

from repro.experiments import figure6_stability


def test_fig6_stability(run_once, wesad, scale):
    dims = (100, 200, 400, 700, 1000)

    def regenerate():
        return figure6_stability(wesad, dims=dims, seed=0, scale=scale)

    results, text = run_once(regenerate)
    print("\n" + text)

    online, boost = results["OnlineHD"], results["BoostHD"]
    assert len(online.points) == len(dims)
    assert len(boost.points) == len(dims)
    print(f"mu_sigma: OnlineHD={online.mean_sigma:.4f} BoostHD={boost.mean_sigma:.4f}")
    # Both models must be meaningfully above chance across the sweep, and the
    # ensemble's run-to-run variability should not exceed the single model's
    # by much (the paper reports it is ~3x smaller).
    assert online.means.min() > 0.5
    assert boost.means.min() > 0.5
    assert boost.mean_sigma <= online.mean_sigma * 2.0
