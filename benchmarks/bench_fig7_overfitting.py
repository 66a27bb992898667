"""Figure 7 — macro accuracy under induced class imbalance (Eq. 8).

Non-target classes keep only a fraction r of their training samples; macro
accuracy on the untouched test set measures how gracefully each model
degrades.  The paper shows OnlineHD degrading sharply while BoostHD holds.
"""

import numpy as np

from repro.experiments import figure7_overfitting


def test_fig7_overfitting(run_once, wesad, scale):
    keep_fractions = (1.0, 0.6, 0.3, 0.15)

    def regenerate():
        return figure7_overfitting(
            wesad,
            keep_fractions=keep_fractions,
            total_dims=(scale.total_dim,),
            seed=0,
            scale=scale,
        )

    results, text = run_once(regenerate)
    print("\n" + text)

    series = results[scale.total_dim]
    online, boost = series["OnlineHD"], series["BoostHD"]
    assert online.shape == boost.shape == (len(keep_fractions),)
    assert np.all((online >= 0) & (online <= 1))
    assert np.all((boost >= 0) & (boost <= 1))

    online_drop = online[0] - online[-1]
    boost_drop = boost[0] - boost[-1]
    print(f"macro-accuracy drop at r={keep_fractions[-1]}: OnlineHD={online_drop:.3f} BoostHD={boost_drop:.3f}")
    # BoostHD's macro accuracy under severe imbalance must stay usable and not
    # collapse harder than the single model.
    assert boost[-1] > 0.4
    assert boost_drop <= online_drop + 0.10
